// Command malgraphctl drives the MalGraph reproduction pipeline from the
// command line.
//
// Usage:
//
//	malgraphctl run     [-scale 0.05] [-seed N] [-detect] [-iters 50] [-maxpages N]
//	malgraphctl graph   [-scale 0.05] [-seed N] [-out graph.json]
//	malgraphctl crawl   [-scale 0.05] [-seed N]
//	malgraphctl serve   [-scale 0.05] [-seed N] [-addr :8080] [-batches 10] [-snapshot state.json]
//	                    [-store dir] [-snapshot-retain 2]
//	                    [-wal dir] [-checkpoint-bytes N] [-pprof localhost:6060]
//	                    [-remote-root URL[,URL...]] [-remote-mirror URL[,URL...]]
//	                    [-max-inflight 64] [-admission-wait 1s] [-max-body-bytes N]
//	                    [-mem-watermark-bytes N] [-drain-timeout 30s]
//	                    [-handler-timeout 2m] [-io-timeout 2m]
//	malgraphctl push    [-scale 0.05] [-seed N] [-server http://localhost:8080] [-file obs.json] [-batches 10] [-from K]
//	malgraphctl dataset [-scale 0.05] [-seed N] [-out data.json] [-full]
//
// run executes the full pipeline and renders every table and figure; graph
// exports MALGRAPH as JSON; crawl reports what the §III-D crawler found;
// serve runs the streaming MALGRAPH service — batch ingest, externally
// POSTed observations/reports, graph queries and incrementally recomputed
// results over HTTP, alongside the simulated PyPI root registry and its
// mirrors (warm-restartable via -snapshot; -remote-root/-remote-mirror
// route artifact recovery for external observations through live registry
// endpoints instead of the in-process fleet); push is the loader client,
// POSTing raw observations (from -file, or the simulated world) to a serve
// instance in batches and polling its stats; dataset exports the collected
// corpus (public metadata by default, -full embeds artifacts, mirroring the
// paper's two-tier release).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"malgraph"
	"malgraph/internal/admission"
	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/registry"
	"malgraph/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "malgraphctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: malgraphctl <run|graph|crawl|serve|push|dataset> [flags]")
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	scale := fs.Float64("scale", 0.05, "corpus scale relative to the paper (1.0 ≈ 24k packages)")
	seed := fs.Uint64("seed", 20240404, "world seed")
	detect := fs.Bool("detect", false, "run the Table X detection experiment (run only)")
	iters := fs.Int("iters", 50, "detection iterations (run only)")
	out := fs.String("out", "", "output file (graph/dataset; default stdout)")
	addr := fs.String("addr", ":8080", "listen address (serve only)")
	full := fs.Bool("full", false, "embed artifacts in the dataset export (dataset only)")
	maxPages := fs.Int("maxpages", 0, "crawl page budget (0 = library default)")
	batches := fs.Int("batches", 10, "ingest batches the feed is partitioned into (serve/push)")
	snapshot := fs.String("snapshot", "", "engine snapshot file for warm restarts (serve only)")
	storeDir := fs.String("store", "", "content-addressed chunk store directory: checkpoints become a small manifest at -snapshot plus delta segments here, so checkpoint cost tracks the ingest delta (serve only; requires -snapshot)")
	snapshotRetain := fs.Int("snapshot-retain", 2, "how many snapshots to keep: the live one plus N-1 archives, pruned after each checkpoint (serve only; needs -store)")
	walDir := fs.String("wal", "", "write-ahead journal directory: accepted ingests are journaled before apply and replayed on restart (serve only)")
	checkpointBytes := fs.Int64("checkpoint-bytes", 4<<20, "auto-checkpoint once this many journal bytes accumulate (serve only; needs -wal and -snapshot; 0 disables)")
	from := fs.Int("from", 1, "first batch to push, 1-based — resume an interrupted push from its last acknowledged batch (push only)")
	remoteRoots := fs.String("remote-root", "", "comma-separated root registry base URLs for external-observation recovery (serve only)")
	remoteMirrors := fs.String("remote-mirror", "", "comma-separated mirror base URLs for external-observation recovery (serve only)")
	pprofAddr := fs.String("pprof", "", "side listener address for net/http/pprof, e.g. localhost:6060 (serve only; off by default)")
	server := fs.String("server", "http://localhost:8080", "serve instance to push to (push only)")
	file := fs.String("file", "", "observations JSON file to push; default: generate from the simulated world (push only)")
	maxInflight := fs.Int("max-inflight", 64, "concurrent mutating requests admitted; excess waits then gets 429 (serve only)")
	admissionWait := fs.Duration("admission-wait", time.Second, "how long a mutating request may queue for an admission slot before 429 (serve only; 0 = shed immediately)")
	maxBodyBytes := fs.Int64("max-body-bytes", 32<<20, "per-request body cap on mutating endpoints; larger bodies get 413 (serve only; 0 disables)")
	memWatermark := fs.Int64("mem-watermark-bytes", 0, "heap watermark above which mutating requests are shed with 429 while reads keep serving (serve only; 0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight requests at shutdown before connections are cut (serve only)")
	handlerTimeout := fs.Duration("handler-timeout", 2*time.Minute, "per-request context deadline on mutating handlers (serve only; 0 disables)")
	ioTimeout := fs.Duration("io-timeout", 2*time.Minute, "server read/write timeout per request — bounds slow-loris clients (serve only; 0 disables)")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	cfg := malgraph.Config{
		Seed: *seed, Scale: *scale, Detection: *detect,
		DetectionIterations: *iters, MaxPages: *maxPages,
	}
	switch cmd {
	case "run":
		return cmdRun(cfg)
	case "graph":
		return cmdGraph(cfg, *out)
	case "crawl":
		return cmdCrawl(cfg)
	case "serve":
		return cmdServe(cfg, serveFlags{
			addr: *addr, batches: *batches, snapshotPath: *snapshot, walDir: *walDir,
			checkpointBytes: *checkpointBytes,
			storeDir:        *storeDir, snapshotRetain: *snapshotRetain,
			remoteRoots: splitList(*remoteRoots), remoteMirrors: splitList(*remoteMirrors),
			pprofAddr:   *pprofAddr,
			maxInflight: *maxInflight, admissionWait: *admissionWait,
			maxBodyBytes: *maxBodyBytes, memWatermark: *memWatermark,
			drainTimeout: *drainTimeout, handlerTimeout: *handlerTimeout, ioTimeout: *ioTimeout,
		})
	case "push":
		return cmdPush(cfg, *server, *file, *batches, *from)
	case "dataset":
		return cmdDataset(cfg, *out, *full)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdDataset(cfg malgraph.Config, out string, full bool) error {
	p, err := malgraph.BuildPipeline(context.Background(), cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	mode := collect.ExportPublic
	if full {
		mode = collect.ExportFull
	}
	if err := p.Dataset.WriteJSON(w, mode); err != nil {
		return fmt.Errorf("export dataset: %w", err)
	}
	fmt.Fprintf(os.Stderr, "exported %d entries (%d available), mode=%v\n",
		len(p.Dataset.Entries), len(p.Dataset.Available()), map[bool]string{true: "full", false: "public"}[full])
	return nil
}

func cmdRun(cfg malgraph.Config) error {
	start := time.Now()
	results, err := malgraph.Run(cfg)
	if err != nil {
		return err
	}
	results.Render(os.Stdout)
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdGraph(cfg malgraph.Config, out string) error {
	p, err := malgraph.BuildPipeline(context.Background(), cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := p.Graph.G.WriteJSON(w); err != nil {
		return fmt.Errorf("export graph: %w", err)
	}
	fmt.Fprintf(os.Stderr, "exported %d nodes, %d edges\n", p.Graph.G.NodeCount(), p.Graph.G.EdgeCount())
	return nil
}

func cmdCrawl(cfg malgraph.Config) error {
	p, err := malgraph.BuildPipeline(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("seeds: %d   fetched: %d   relevant: %d   skipped: %d   errors: %d\n",
		len(p.World.SeedURLs), p.Crawl.Fetched, len(p.Crawl.Relevant), p.Crawl.Skipped, p.Crawl.Errors)
	fmt.Printf("parsed reports: %d\n", len(p.Reports))
	for i, r := range p.Reports {
		if i >= 10 {
			fmt.Printf("… and %d more\n", len(p.Reports)-10)
			break
		}
		fmt.Printf("  %-60s pkgs=%d urls=%d ips=%d\n", r.URL, len(r.Packages), len(r.IoCs.URLs), len(r.IoCs.IPs))
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(raw string) []string {
	var out []string
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// serveFlags bundles serve's command-line knobs.
type serveFlags struct {
	addr            string
	batches         int
	snapshotPath    string
	walDir          string
	checkpointBytes int64
	storeDir        string
	snapshotRetain  int
	remoteRoots     []string
	remoteMirrors   []string
	pprofAddr       string
	maxInflight     int
	admissionWait   time.Duration
	maxBodyBytes    int64
	memWatermark    int64
	drainTimeout    time.Duration
	handlerTimeout  time.Duration
	ioTimeout       time.Duration
}

// cmdServe runs the streaming MALGRAPH service: the world's timeline cut
// into ingest batches, with ingest/query/results over HTTP (see serve.go),
// the external observations/reports inlet, plus the simulated PyPI registry
// endpoints. With -snapshot, existing engine state warm-restarts the server
// and POST /api/v1/snapshot checkpoints it again. With -wal, every accepted
// ingest is journaled (fsync'd) before the engine applies it, the journal
// suffix past the snapshot replays on startup, and -checkpoint-bytes bounds
// how much journal accumulates before an automatic checkpoint+truncate —
// recovery is always last snapshot + WAL suffix. With -store (PR 10), the
// snapshot file becomes a small manifest over content-addressed delta
// segments in the store directory: checkpoints write O(ingest delta)
// instead of re-serialising the corpus, the last -snapshot-retain
// manifests are kept (pruned after each checkpoint), a background sweep
// compacts the store once it accretes enough segments, and GET
// /api/v1/snapshot streams manifest + segments with per-segment CRCs. With -remote-root /
// -remote-mirror, artifact recovery for externally POSTed observations goes
// through a registry.RemoteFleet against those live base URLs instead of
// the in-process fleet. With -pprof, net/http/pprof is exposed on a side
// listener (never on the main API address) so lock contention and
// allocation profiles stay observable in production.
//
// Overload and lifecycle (PR 9): mutating requests pass a bounded admission
// gate (-max-inflight / -admission-wait; saturation answers 429 with a
// computed Retry-After), bodies are capped (-max-body-bytes), and an
// optional heap watermark (-mem-watermark-bytes) sheds writes under memory
// pressure while reads keep serving from the published epoch. SIGTERM and
// SIGINT trigger a graceful drain (-drain-timeout), a final checkpoint and
// a clean journal close; /readyz is the orchestrator's readiness probe
// (fails while poisoned, draining, or on a broken journal) next to the
// /healthz liveness probe.
func cmdServe(cfg malgraph.Config, sf serveFlags) error {
	var store *castore.Store
	if sf.storeDir != "" {
		if sf.snapshotPath == "" {
			return fmt.Errorf("serve -store requires -snapshot (the store holds chunks; the snapshot file is the manifest that references them)")
		}
		var err error
		store, err = castore.Open(sf.storeDir, nil)
		if err != nil {
			return fmt.Errorf("serve -store: %w", err)
		}
		fmt.Printf("chunk store at %s: %d blob(s) in %d segment(s)\n",
			sf.storeDir, store.Len(), store.SegmentCount())
	}
	// The restore needs only the snapshot and the store, so it runs while
	// the world builds.
	var finishRestart func(*malgraph.Pipeline) (bool, error)
	if sf.snapshotPath != "" {
		finishRestart = startWarmRestart(sf.snapshotPath, store)
	}
	p, err := malgraph.NewStreamingPipeline(context.Background(), cfg, sf.batches)
	if err != nil {
		return err
	}
	if len(sf.remoteRoots)+len(sf.remoteMirrors) > 0 {
		rf := registry.NewRemoteFleet(nil)
		for _, u := range sf.remoteRoots {
			if err := rf.AddRoot(u); err != nil {
				return fmt.Errorf("serve -remote-root %s: %w", u, err)
			}
		}
		for _, u := range sf.remoteMirrors {
			if err := rf.AddMirror(u); err != nil {
				return fmt.Errorf("serve -remote-mirror %s: %w", u, err)
			}
		}
		p.SetExternalView(rf)
		fmt.Printf("external-observation recovery via remote fleet: %v\n", rf.Endpoints())
	}
	if finishRestart != nil {
		warm, err := finishRestart(p)
		if err != nil {
			return fmt.Errorf("warm restart from %s: %w", sf.snapshotPath, err)
		}
		if warm {
			fmt.Printf("warm restart: %d packages, %d edges from %s (seq %d)\n",
				len(p.Dataset.Entries), p.Graph.G.EdgeCount(), sf.snapshotPath, p.LastSeq())
		} else {
			fmt.Printf("cold start: no snapshot at %s yet\n", sf.snapshotPath)
		}
	}
	var journal *wal.Log
	if sf.walDir != "" {
		journal, err = wal.Open(sf.walDir, nil)
		if err != nil {
			return fmt.Errorf("serve -wal: %w", err)
		}
		replayed, err := p.ReplayJournal(journal)
		if err != nil {
			return fmt.Errorf("serve -wal replay: %w", err)
		}
		p.AttachJournal(journal)
		fmt.Printf("journal at %s: replayed %d record(s) past the snapshot (seq %d)\n",
			sf.walDir, replayed, p.LastSeq())
	}
	srv := newServer(p, sf.snapshotPath)
	srv.wal = journal
	srv.checkpointBytes = sf.checkpointBytes
	srv.store = store
	if sf.snapshotRetain > 0 {
		srv.snapshotRetain = sf.snapshotRetain
	}
	srv.adm = admission.New(admission.Config{
		MaxInflight:       sf.maxInflight,
		MaxWait:           sf.admissionWait,
		MemWatermarkBytes: uint64(max(sf.memWatermark, 0)),
	})
	srv.maxBodyBytes = sf.maxBodyBytes
	srv.handlerTimeout = sf.handlerTimeout

	main := &http.Server{
		Addr:              sf.addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       sf.ioTimeout,
		WriteTimeout:      sf.ioTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	lc := &lifecycle{srv: srv, main: main, drainTimeout: sf.drainTimeout, out: os.Stdout}
	if sf.pprofAddr != "" {
		lc.pprofSrv = newPprofServer(sf.pprofAddr)
		fmt.Printf("pprof side listener at http://%s/debug/pprof/\n", sf.pprofAddr)
	}
	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		return fmt.Errorf("serve -addr %s: %w", sf.addr, err)
	}
	fmt.Printf("serving MALGRAPH at %s: POST /api/v1/{ingest,observations,reports} (%d batches pending), "+
		"GET /api/v1/{results,stats,node,snapshot}, /healthz, /readyz, PyPI registry at /root/ and /mirror/<name>/\n",
		sf.addr, p.PendingBatches())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return lc.Run(ctx, ln)
}

// startWarmRestart opens the snapshot at path and restores its engine —
// through store when one is configured — on its own goroutine, so the
// restore overlaps the world build. The returned finish waits for it and
// adopts the engine into p; on a cold start (no snapshot yet) it attaches
// store instead, so the first checkpoint writes into it. finish reports
// whether the start was warm.
func startWarmRestart(path string, store *castore.Store) (finish func(p *malgraph.Pipeline) (warm bool, err error)) {
	var eng *core.Engine
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, openErr := os.Open(path)
		if openErr != nil {
			if !os.IsNotExist(openErr) {
				err = openErr
			}
			return
		}
		defer f.Close()
		if store != nil {
			eng, err = core.RestoreEngineWithStore(f, store)
		} else {
			eng, err = core.RestoreEngine(f)
		}
		if err != nil {
			err = fmt.Errorf("malgraph: restore: %w", err)
		}
	}()
	return func(p *malgraph.Pipeline) (bool, error) {
		<-done
		switch {
		case err != nil:
			return false, err
		case eng != nil:
			p.AdoptEngine(eng)
			return true, nil
		}
		if store != nil {
			p.AttachStore(store)
		}
		return false, nil
	}
}

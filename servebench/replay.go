package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"malgraph"
	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/registry"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
)

// Serve's defaults, mirrored so the in-process replay checkpoints and
// compacts where a default `malgraphctl serve` would.
const (
	autoCheckpointBytes = 4 << 20
	compactSegments     = 8
)

// ioStats counts what one layer did through its wal.FS.
type ioStats struct {
	mu     sync.Mutex
	syncs  int
	syncMs samples
	bytes  int64
}

// timingFS wraps the filesystem seam that wal.Open and castore.Open take,
// timing every fsync and counting written bytes, with spans named after
// the layer that owns the files.
type timingFS struct {
	inner wal.FS
	layer string
	tr    *tracer
	io    *ioStats
}

func (f timingFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f timingFS) OpenFile(name string) (wal.File, error) {
	file, err := f.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.inner.SyncDir(dir)
	f.synced(start)
	return err
}

func (f timingFS) synced(start time.Time) {
	end := time.Now()
	f.io.mu.Lock()
	f.io.syncs++
	f.io.syncMs.add(end.Sub(start))
	f.io.mu.Unlock()
	f.tr.child(f.layer+".sync", start, end)
}

type timingFile struct {
	wal.File
	fs timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.child(f.fs.layer+".write", start, time.Now())
	f.fs.io.mu.Lock()
	f.fs.io.bytes += int64(n)
	f.fs.io.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.synced(start)
	return err
}

// timingView is the registry.View installed with SetExternalView: it
// times every artifact recovery the resolver asks the registry fleet for.
type timingView struct {
	inner registry.View
	tr    *tracer
	calls int
	total time.Duration
}

func (v *timingView) Recover(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, string, error) {
	start := time.Now()
	a, from, err := v.inner.Recover(coord, t)
	end := time.Now()
	v.calls++
	v.total += end.Sub(start)
	v.tr.child("registry.recover", start, end)
	return a, from, err
}

func (v *timingView) ReleaseInfo(coord ecosys.Coord) (ecosys.Release, bool) {
	return v.inner.ReleaseInfo(coord)
}

// step is one delivery of the replayed operation sequence: an append of
// observations and/or reports, optionally followed by a results read.
type step struct {
	obs     []collect.Observation
	reps    []*reports.Report
	results bool
}

// span names a step's call: deliveries without observations (report
// slices) get their own span name so observation percentiles stay pure.
func (s step) span(name string) string {
	if len(s.obs) == 0 {
		return name + "_reports"
	}
	return name
}

// replaySteps is the workload's HTTP operation sequence as in-process
// calls. cold_restart's one-shot drain becomes one AppendExternal of the
// whole stream and corpus, so the resolve path is exercised there too.
func replaySteps(workload string, in *inputs) []step {
	var steps []step
	add := func(bs []batch, results bool) {
		for _, b := range bs {
			steps = append(steps, step{obs: b.obs})
			if len(b.reps) > 0 {
				steps = append(steps, step{reps: b.reps})
			}
			steps[len(steps)-1].results = results
		}
	}
	switch workload {
	case "analyst_poll":
		half := len(in.batches) / 2
		add(in.batches[:half], false)
		steps[len(steps)-1].results = true
		add(in.batches[half:], true)
	case "cold_restart":
		steps = []step{{obs: in.obs, reps: in.reps}}
	default:
		add(in.batches, false)
	}
	steps[len(steps)-1].results = true
	return steps
}

// inProcessReplay replays the workload through the library's public
// functions with timing wrappers on the WAL, the content store and the
// registry view: first through the Pipeline (append, checkpoint,
// compaction, results, restore), then one layer lower through a bare
// collect.Resolver and core.Engine (resolve, ingest, view). It returns the
// per-layer metrics; spans land in tr.
//
// Self-time shares describe the Pipeline replay. Its append spans contain
// the resolve, ingest and view calls that only the layer replay can time,
// so their self time is taken from the layer replay and subtracted from
// the append spans' own.
func inProcessReplay(workload string, in *inputs, dir string, pipeTr, layerTr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	steps := replaySteps(workload, in)
	w, err := pipelineReplay(steps, in.cfg, dir, pipeTr, out)
	if err != nil {
		return nil, err
	}
	if err := layerReplay(steps, w, layerTr, out); err != nil {
		return nil, err
	}
	self := selfByLayer(pipeTr.snapshot())
	lower := selfByLayer(layerTr.snapshot())
	total := 0.0
	for _, v := range self {
		total += v
	}
	self["collect"], self["core"] = lower["collect"], lower["core"]
	self["pipeline"] = max(self["pipeline"]-lower["collect"]-lower["core"], 0)
	for _, l := range selfLayers {
		out["self."+l+"_pct"] = 100 * self[l] / max(total, 1e-9)
	}
	return out, nil
}

func pipelineReplay(steps []step, cfg malgraph.Config, dir string, tr *tracer, out map[string]float64) (*worldRef, error) {
	p, err := malgraph.NewStreamingPipeline(context.Background(), cfg, 1)
	if err != nil {
		return nil, err
	}
	walIO, storeIO := &ioStats{}, &ioStats{}
	log, err := wal.Open(filepath.Join(dir, "wal"), timingFS{wal.OSFS(), "wal", tr, walIO})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	store, err := castore.Open(filepath.Join(dir, "store"), timingFS{wal.OSFS(), "castore", tr, storeIO})
	if err != nil {
		return nil, err
	}
	p.AttachStore(store)
	p.AttachJournal(log)
	view := &timingView{inner: p.World.Fleet, tr: tr}
	p.SetExternalView(view)
	snap := filepath.Join(dir, "snapshot.json")

	var compactMs samples
	compact := func() error {
		live := p.LiveRefs()
		f, err := os.Open(snap)
		if err != nil {
			return err
		}
		refs, err := core.CollectManifestRefs(f, store)
		f.Close()
		if err != nil {
			return err
		}
		for h := range refs {
			live[h] = true
		}
		id := tr.enter("castore.compact")
		_, err = store.Compact(live)
		compactMs.add(tr.exit(id))
		return err
	}
	checkpoint := func() error {
		id := tr.enter("pipeline.checkpoint")
		_, err := p.Checkpoint(func(snapshot func(io.Writer) error) error { return writeAtomic(snap, snapshot) })
		tr.exit(id)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if store.SegmentCount() >= compactSegments {
			return compact()
		}
		return nil
	}

	var sts []core.IngestStats
	for _, s := range steps {
		id := tr.enter(s.span("pipeline.append"))
		st, _, err := p.AppendExternal(s.obs, s.reps)
		tr.exit(id)
		if err != nil {
			return nil, fmt.Errorf("replay append: %w", err)
		}
		sts = append(sts, st)
		if log.AppendedBytes() >= autoCheckpointBytes {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
		if s.results {
			ep := p.CurrentEpoch()
			id := tr.enter("epoch.results")
			_, err := ep.Results()
			tr.exit(id)
			if err != nil {
				return nil, err
			}
			id = tr.enter("epoch.results_json")
			_, err = ep.ResultsJSON()
			tr.exit(id)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	out["castore.segments"] = float64(store.SegmentCount())
	if err := compact(); err != nil {
		return nil, err
	}
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	id := tr.enter("pipeline.restore")
	err = p.RestoreEngineWithStore(f, store)
	tr.exit(id)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("replay restore: %w", err)
	}

	spans := tr.snapshot()
	pct := func(name string, q float64) float64 { v, _ := percentile(durations(spans, name), q); return v }
	out["pipeline.append_p50_ms"] = pct("pipeline.append", 50)
	out["pipeline.append_p95_ms"] = pct("pipeline.append", 95)
	out["pipeline.checkpoint_ms"] = pct("pipeline.checkpoint", 50)
	out["pipeline.restore_ms"] = pct("pipeline.restore", 50)
	out["epoch.results_p50_ms"] = pct("epoch.results", 50)
	out["epoch.results_p95_ms"] = pct("epoch.results", 95)
	out["epoch.results_json_ms"] = pct("epoch.results_json", 50)
	out["castore.compact_ms"] = sum(compactMs)

	var dirty, entriesNew, entriesUpd, rejoined, replaced, rebuilt, arts, parts, items float64
	for _, st := range sts {
		for _, changed := range []bool{st.DatasetChanged(), st.SimilarChanged(), st.DependencyChanged(), st.CoexistingChanged()} {
			if changed {
				dirty++
			}
		}
		entriesNew += float64(st.NewEntries)
		entriesUpd += float64(st.UpdatedEntries)
		rejoined += float64(st.ReportsRejoined)
		replaced += float64(st.CoexistingEdgesReplaced)
		if st.CoexistingRebuilt {
			rebuilt++
		}
		arts += float64(st.ArtifactsReclustered)
		parts += float64(st.PartitionsReclustered)
		items += float64(st.DirtyEcoItems)
	}
	out["epoch.dirty_blocks"] = dirty / float64(len(sts))
	out["collect.entries_new"] = entriesNew
	out["collect.entries_updated"] = entriesUpd
	out["core.reports_rejoined"] = rejoined
	out["core.coexisting_edges_replaced"] = replaced
	out["core.coexisting_rebuilt"] = rebuilt
	out["textsim.artifacts_reclustered"] = arts
	out["textsim.partitions_reclustered"] = parts
	out["textsim.dirty_eco_items"] = items
	out["textsim.recluster_scope"] = arts / max(items, 1)

	st := p.Stats()
	out["graph.nodes"] = float64(st.Nodes)
	for _, t := range graph.EdgeTypes() {
		out["graph.edges."+t.String()] = float64(st.EdgesByType[t.String()])
	}
	out["registry.recover_calls"] = float64(view.calls)
	out["registry.recover_ms"] = ms(view.total)
	p50, _ := percentile(walIO.syncMs, 50)
	p95, _ := percentile(walIO.syncMs, 95)
	out["wal.syncs"] = float64(walIO.syncs)
	out["wal.sync_p50_ms"] = p50
	out["wal.sync_p95_ms"] = p95
	out["wal.bytes"] = float64(walIO.bytes)
	out["castore.bytes_written"] = float64(storeIO.bytes)
	out["castore.syncs"] = float64(storeIO.syncs)
	out["castore.write_amp"] = float64(storeIO.bytes) / max(float64(walIO.bytes), 1)
	return &worldRef{view: p.World.Fleet, at: p.World.Config.CollectAt}, nil
}

// worldRef is what the layer replay needs of the world once the pipeline
// replay's engine has been dropped.
type worldRef struct {
	view registry.View
	at   time.Time
}

// layerReplay replays the same deliveries one layer lower: the resolver
// and the engine the Pipeline drives, called directly, so their time is
// measured without the journal, the epoch publish or the results cache.
func layerReplay(steps []step, w *worldRef, tr *tracer, out map[string]float64) error {
	view := &timingView{inner: w.view, tr: tr}
	rv := collect.NewResolver(view, w.at)
	eng := core.NewEngine(core.DefaultConfig())
	for _, s := range steps {
		id := tr.enter(s.span("collect.resolve"))
		b, err := rv.Resolve(s.obs, eng.Dataset())
		tr.exit(id)
		if err != nil {
			return fmt.Errorf("layer replay resolve: %w", err)
		}
		id = tr.enter(s.span("core.ingest"))
		_, err = eng.Ingest(core.Batch{Entries: b.Entries, PerSource: b.PerSource, Stats: b.Stats, Reports: s.reps, At: b.At})
		tr.exit(id)
		if err != nil {
			return fmt.Errorf("layer replay ingest: %w", err)
		}
		id = tr.enter("core.view")
		eng.View()
		tr.exit(id)
	}
	spans := tr.snapshot()
	pct := func(name string, q float64) float64 { v, _ := percentile(durations(spans, name), q); return v }
	out["collect.resolve_ms"] = pct("collect.resolve", 50)
	out["core.ingest_p50_ms"] = pct("core.ingest", 50)
	out["core.ingest_p95_ms"] = pct("core.ingest", 95)
	out["core.view_ms"] = pct("core.view", 50)
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// writeAtomic replaces path with write's bytes the way serve publishes a
// checkpoint manifest: temp file, fsync, rename.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Command servebench is the end-to-end benchmark of `malgraphctl serve`.
// A single-process load generator builds the simulated world for --seed in
// its own process, starts a real serve (-wal -store -snapshot) on
// loopback, drives one workload through it over at most two connections
// (one pusher, one reader), checks the served state against an in-process
// reference, and prints every metric by name with its unit. The last line
// of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated with client-side spans and then replayed in-process
// through the library's public functions, and the metrics are per layer.
// See README.md for the workloads and the metric map. Run it through
// run.sh, which builds serve and this program first:
//
//	bash servebench/run.sh --workload ingest_burst --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --workload all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"malgraph"
	"malgraph/internal/collect"
)

var workloads = map[string]func(*run) error{
	"ingest_burst": ingestBurst,
	"analyst_poll": analystPoll,
	"cold_restart": coldRestart,
}

var workloadOrder = []string{"ingest_burst", "analyst_poll", "cold_restart"}

// The benchmark runs on the 10× world (about 12k packages), where corpus
// size drives the ingest and restore costs, and pushes its observation
// stream in about the 200 batches `malgraphctl push` would use.
const (
	worldScale    = 0.5
	streamBatches = 200
)

// e2eUnits names every end-to-end metric a --trace 0 run emits.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"ingest_obs_per_s": "1/s",
	"ack_p50_ms":       "ms",
	"ack_p95_ms":       "ms",
	"read_p50_ms":      "ms",
	"read_p99_ms":      "ms",
	"fresh_p50_ms":     "ms",
	"fresh_p95_ms":     "ms",
	"restart_s":        "s",
	"peak_rss_mb":      "MiB",
}

// layerUnits names every per-layer metric a --trace 1 run emits.
var layerUnits = map[string]string{
	"serve.decode_ms":                "ms",
	"serve.body_kb":                  "KiB",
	"serve.bundle_ms":                "ms",
	"castore.bundle_mb":              "MiB",
	"admission.queue_max":            "count",
	"admission.inflight_max":         "count",
	"http.ack_p50_ms":                "ms",
	"http.read_p50_ms":               "ms",
	"pipeline.append_p50_ms":         "ms",
	"pipeline.append_p95_ms":         "ms",
	"pipeline.checkpoint_ms":         "ms",
	"pipeline.restore_ms":            "ms",
	"epoch.results_p50_ms":           "ms",
	"epoch.results_p95_ms":           "ms",
	"epoch.results_json_ms":          "ms",
	"epoch.dirty_blocks":             "count",
	"collect.resolve_ms":             "ms",
	"collect.entries_new":            "count",
	"collect.entries_updated":        "count",
	"registry.recover_calls":         "count",
	"registry.recover_ms":            "ms",
	"core.ingest_p50_ms":             "ms",
	"core.ingest_p95_ms":             "ms",
	"core.view_ms":                   "ms",
	"core.reports_rejoined":          "count",
	"core.coexisting_edges_replaced": "count",
	"core.coexisting_rebuilt":        "count",
	"textsim.artifacts_reclustered":  "count",
	"textsim.partitions_reclustered": "count",
	"textsim.dirty_eco_items":        "count",
	"textsim.recluster_scope":        "ratio",
	"graph.nodes":                    "count",
	"graph.edges.duplicated":         "count",
	"graph.edges.similar":            "count",
	"graph.edges.dependency":         "count",
	"graph.edges.coexisting":         "count",
	"wal.syncs":                      "count",
	"wal.sync_p50_ms":                "ms",
	"wal.sync_p95_ms":                "ms",
	"wal.bytes":                      "bytes",
	"wal.disk_bytes":                 "bytes",
	"castore.bytes_written":          "bytes",
	"castore.syncs":                  "count",
	"castore.write_amp":              "ratio",
	"castore.compact_ms":             "ms",
	"castore.segments":               "count",
	"castore.disk_bytes":             "bytes",
	"self.pipeline_pct":              "%",
	"self.epoch_pct":                 "%",
	"self.collect_pct":               "%",
	"self.registry_pct":              "%",
	"self.core_pct":                  "%",
	"self.wal_pct":                   "%",
	"self.castore_pct":               "%",
}

// selfLayers are the layers whose self-time share the traced run reports.
var selfLayers = []string{"pipeline", "epoch", "collect", "registry", "core", "wal", "castore"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := mainErr(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func mainErr(args []string) (int, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "ingest_burst, analyst_poll, cold_restart or all")
	seed := fs.Uint64("seed", 1, "world seed (passed to serve as -seed)")
	seconds := fs.Float64("seconds", 20, "length of each workload's timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := fs.String("bin", "", "malgraphctl binary")
	work := fs.String("work", "", "scratch directory for serve state, logs and spans")
	commit := fs.String("commit", "unknown", "source revision recorded in the run record")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *bin == "" || *work == "" {
		return 0, fmt.Errorf("--bin and --work are required (run.sh sets them)")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		return 0, fmt.Errorf("unknown workload %q", *workload)
	}
	rc := runCfg{bin: *bin, work: *work, seed: *seed, scale: worldScale, seconds: *seconds, trace: *trace == 1, batches: streamBatches}
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		return 0, err
	}
	var all []result
	for _, name := range names {
		res, err := runWorkload(name, rc, *commit)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		all = append(all, res)
	}
	final := all[0]
	if len(all) > 1 {
		final = result{Correct: true, Metrics: map[string]metric{}}
		for i, res := range all {
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for k, v := range res.Metrics {
				final.Metrics[names[i]+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1, nil
	}
	return 0, nil
}

// runWorkload generates the inputs, runs the workload (and, traced, the
// in-process replay), prints every metric and the run record, and returns
// the result.
func runWorkload(name string, rc runCfg, commit string) (result, error) {
	in, err := genInputs(malgraph.Config{Seed: rc.seed, Scale: rc.scale}, rc.batches)
	if err != nil {
		return result{}, fmt.Errorf("generate inputs: %w", err)
	}
	if in.shape.Deviates {
		fmt.Fprintf(os.Stderr, "servebench: crawl shape %d pages / %d reports differs from this world's modal %d / %d (crawl worker-order defect)\n",
			in.shape.Pages, in.shape.Reports, in.shape.ModalPage, in.shape.ModalRep)
	}
	r := &run{rc: rc, in: in, extra: map[string]any{}}
	if rc.trace {
		r.tr = newTracer()
	}
	wallStart := time.Now()
	err = workloads[name](r)
	if r.srv != nil {
		r.srv.kill()
	}
	if err != nil {
		return result{}, err
	}
	r.extra["run_wall_s"] = time.Since(wallStart).Seconds()

	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	res.Correct = res.Failed == 0
	var metrics map[string]float64
	units := e2eUnits
	if rc.trace {
		in.ref = nil // the replay builds its own pipeline; let the reference go
		runtime.GC()
		metrics, err = traceMetrics(name, r)
		units = layerUnits
	} else {
		metrics = endToEnd(r)
	}
	if err != nil {
		return result{}, err
	}
	res.Metrics = map[string]metric{}
	keys := make([]string, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok := metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s not measured", k)
		}
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
		fmt.Printf("%-14s %-32s %14.4f %s\n", name, k, v, units[k])
	}
	rec := record(name, r, commit)
	raw, err := json.Marshal(rec)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("record %s\n", raw)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "servebench:", name+":", p)
	}
	return res, nil
}

// endToEnd condenses the workload's samples into the end-to-end metrics.
func endToEnd(r *run) map[string]float64 {
	p := func(xs samples, q float64) float64 { v, _ := percentile(xs, q); return v }
	return map[string]float64{
		"setup_s":          median(r.setups)/1000 + r.preload.Seconds(),
		"ingest_obs_per_s": median(r.obsPerSec),
		"ack_p50_ms":       p(r.acks, 50),
		"ack_p95_ms":       p(r.acks, 95),
		"read_p50_ms":      p(r.reads, 50),
		"read_p99_ms":      p(r.reads, 99),
		"fresh_p50_ms":     p(r.fresh, 50),
		"fresh_p95_ms":     p(r.fresh, 95),
		"restart_s":        median(r.restarts) / 1000,
		"peak_rss_mb":      median(r.rss),
	}
}

// traceMetrics combines what the traced HTTP run observed with the
// in-process replay's per-layer numbers, and writes every span out.
func traceMetrics(name string, r *run) (map[string]float64, error) {
	dir := filepath.Join(r.rc.work, name+"-replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	replayTr, layerTr := newTracer(), newTracer()
	out, err := inProcessReplay(name, r.in, dir, replayTr, layerTr)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	var decode, body samples
	for _, b := range r.in.batches {
		var v struct {
			Observations []collect.Observation `json:"observations"`
		}
		start := time.Now()
		if err := json.Unmarshal(b.obsBody, &v); err != nil {
			return nil, err
		}
		decode.add(time.Since(start))
		body = append(body, float64(len(b.obsBody))/1024)
	}
	out["serve.decode_ms"] = median(decode)
	out["serve.body_kb"] = median(body)
	out["serve.bundle_ms"] = median(r.bundleMs)
	out["castore.bundle_mb"] = median(r.bundleMB)
	var qmax, imax float64
	for _, s := range r.readyz {
		qmax = max(qmax, float64(s.Waiters))
		imax = max(imax, float64(s.Inflight))
	}
	out["admission.queue_max"] = qmax
	out["admission.inflight_max"] = imax
	httpSpans := r.tr.snapshot()
	a, _ := percentile(append(durations(httpSpans, "http POST /api/v1/observations"), durations(httpSpans, "http POST /api/v1/ingest")...), 50)
	out["http.ack_p50_ms"] = a
	reads := durations(httpSpans, "http GET /api/v1/stats")
	reads = append(reads, durations(httpSpans, "http GET /api/v1/node")...)
	reads = append(reads, durations(httpSpans, "http GET /api/v1/results")...)
	out["http.read_p50_ms"] = median(reads)
	out["wal.disk_bytes"] = float64(r.walDisk)
	out["castore.disk_bytes"] = float64(r.storeDisk)

	path := filepath.Join(r.rc.work, fmt.Sprintf("spans-%s-seed%d.json", name, r.rc.seed))
	replaySpans, layerSpans := replayTr.snapshot(), layerTr.snapshot()
	raw, err := json.Marshal(map[string][]span{"http": httpSpans, "pipeline_replay": replaySpans, "layer_replay": layerSpans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	r.extra["spans_file"] = path
	r.extra["spans"] = len(httpSpans) + len(replaySpans) + len(layerSpans)
	return out, nil
}

// record is the run's metadata and sample accounting, printed as one
// JSON line before the result.
func record(name string, r *run, commit string) map[string]any {
	n := func(xs samples) int { return len(xs) }
	rec := map[string]any{
		"workload":   name,
		"seed":       r.rc.seed,
		"scale":      r.rc.scale,
		"seconds":    r.rc.seconds,
		"trace":      r.rc.trace,
		"batches":    len(r.in.batches),
		"commit":     commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"crawl":      r.in.shape,
		"inputs": map[string]int{
			"observations": len(r.in.obs), "reports": len(r.in.reps),
			"pushed_batches": len(r.pushed),
		},
		"samples": map[string]int{
			"setup": n(r.setups), "ack": n(r.acks), "read": n(r.reads), "fresh": n(r.fresh),
			"first_results": n(r.firstResults), "checkpoint": n(r.checkpoints),
			"restart": n(r.restarts), "peak_rss": n(r.rss), "report_ack": n(r.reportAcks),
		},
		"error_rate":       float64(r.failed.Load()) / math.Max(float64(r.attempted.Load()), 1),
		"preload_s":        r.preload.Seconds(),
		"wal_disk_bytes":   r.walDisk,
		"store_disk_bytes": r.storeDisk,
	}
	if r.srv != nil {
		rec["serve_args"] = strings.Join(r.srv.args, " ")
	}
	rec["first_results_s"] = median(r.firstResults) / 1000
	rec["checkpoint_s"] = median(r.checkpoints) / 1000
	if len(r.builds) > 0 {
		rec["build_s"] = median(r.builds) / 1000
	}
	if len(r.late) > 0 {
		v, _ := percentile(r.late, 95)
		rec["late_p95_ms"] = v
	}
	if len(r.ingestStats) > 0 {
		rec["ack_ingest_stats_total"] = sumFields(r.ingestStats)
	}
	if len(r.reportAcks) > 0 {
		rec["report_ack_p50_ms"] = median(r.reportAcks)
	}
	if len(r.bundleMs) > 0 {
		rec["bundle_ms"] = median(r.bundleMs)
		rec["bundle_mb"] = median(r.bundleMB)
	}
	for k, v := range r.extra {
		rec[k] = v
	}
	if len(r.problems) > 0 {
		rec["problems"] = r.problems
	}
	return rec
}

// sumFields adds up the numeric fields of the IngestStats serve returned in
// its acks, so the traced record carries the counts the server reported.
func sumFields(docs []map[string]any) map[string]float64 {
	out := map[string]float64{}
	for _, d := range docs {
		for k, v := range d {
			if f, ok := v.(float64); ok {
				out[k] += f
			}
		}
	}
	return out
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package malgraph

// Tests for the streaming ingest architecture's determinism contract
// (ISSUE 2): ingesting the corpus in any batch partition must yield a graph
// whose components and all RQ analyses are identical to a one-shot Build.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
	"malgraph/internal/xrand"
)

// oneShot builds the classic batch pipeline and its Results once per scale.
func oneShot(t *testing.T, scale float64) (*Pipeline, *Results) {
	t.Helper()
	p, err := BuildPipeline(context.Background(), Config{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func assertResultsEqual(t *testing.T, got, want *Results, label string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	// Localise the difference for debuggability before failing.
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	tp := gv.Type()
	for i := 0; i < tp.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Results.%s differs:\n got %v\nwant %v",
				label, tp.Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Errorf("%s: Results differ in unexported state", label)
	}
}

func assertComponentsEqual(t *testing.T, got, want *core.MalGraph, label string) {
	t.Helper()
	for _, et := range graph.EdgeTypes() {
		g, w := got.PackageSubgraphs(et, 2), want.PackageSubgraphs(et, 2)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s component structure differs (%d vs %d subgraphs)", label, et, len(g), len(w))
		}
		if gc, wc := got.G.EdgeCount(et), want.G.EdgeCount(et); gc != wc {
			t.Errorf("%s: %s edge count %d, want %d", label, et, gc, wc)
		}
	}
}

// edgeSet canonicalises one edge type's edges — endpoints ordered for
// undirected types, attrs serialised — so two graphs can be compared as
// sets, independent of insertion order.
func edgeSet(mg *core.MalGraph, et graph.EdgeType) map[string]bool {
	set := make(map[string]bool)
	for _, e := range mg.G.Edges(et) {
		from, to := e.From, e.To
		if et != graph.Dependency && from > to {
			from, to = to, from
		}
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line := from + "|" + to
		for _, k := range keys {
			line += "|" + k + "=" + e.Attrs[k]
		}
		set[line] = true
	}
	return set
}

// assertEdgeSetsEqual requires the exact per-type edge sets — endpoints AND
// attributes (cluster labels, silhouettes, report URLs) — to match. This is
// stronger than component equality: it pins the LSH-scoped path's partition
// labels and per-partition silhouettes as content-derived values no batch
// partition can perturb.
func assertEdgeSetsEqual(t *testing.T, got, want *core.MalGraph, label string) {
	t.Helper()
	for _, et := range graph.EdgeTypes() {
		g, w := edgeSet(got, et), edgeSet(want, et)
		if len(g) != len(w) {
			t.Errorf("%s: %s edge set size %d, want %d", label, et, len(g), len(w))
		}
		for e := range w {
			if !g[e] {
				t.Errorf("%s: %s edge missing: %s", label, et, e)
			}
		}
		for e := range g {
			if !w[e] {
				t.Errorf("%s: %s edge unexpected: %s", label, et, e)
			}
		}
	}
}

// TestIncrementalTenBatchesMatchesOneShot is the acceptance criterion:
// Scale=0.05, the corpus ingested in 10 time-ordered batches via
// Engine.Ingest, producing identical Results (all RQ tables) to a one-shot
// core.Build.
func TestIncrementalTenBatchesMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	batch, want := oneShot(t, 0.05)

	p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.05}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PendingBatches(); got != 10 {
		t.Fatalf("pending batches = %d", got)
	}
	steps := 0
	for {
		_, ok, err := p.AppendNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
		// Analyze mid-stream to exercise the cache invalidation path on
		// every batch, not just the final state.
		if _, err := p.Analyze(); err != nil {
			t.Fatalf("analyze after batch %d: %v", steps, err)
		}
	}
	if steps != 10 {
		t.Fatalf("fed %d batches", steps)
	}
	got, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertComponentsEqual(t, p.Graph, batch.Graph, "10-batch")
	assertEdgeSetsEqual(t, p.Graph, batch.Graph, "10-batch")
	assertResultsEqual(t, got, want, "10-batch")

	// The rendered report — every table and figure — must match too.
	var gb, wb bytes.Buffer
	got.Render(&gb)
	want.Render(&wb)
	if gb.String() != wb.String() {
		t.Error("10-batch rendered results differ from one-shot")
	}
}

// TestShuffledBatchIngestMatchesOneShot is the satellite property test: the
// corpus shuffled into k ∈ {1, 3, 10} batches must reproduce the one-shot
// component structure and every Results table, for the same seed.
func TestShuffledBatchIngestMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.05
	batch, want := oneShot(t, scale)

	for _, k := range []int{1, 3, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Re-partition the collected world by shuffling its entries
			// (seeded by k so every subtest sees a different order).
			ds, reportCorpus := p.Source()
			entries := make([]*collect.Entry, len(ds.Entries))
			copy(entries, ds.Entries)
			rng := xrand.New(uint64(1000 + k))
			for i := len(entries) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				entries[i], entries[j] = entries[j], entries[i]
			}
			for bi, cb := range collect.PartitionBatches(ds, entries, k) {
				b := core.Batch{Entries: cb.Entries, PerSource: cb.PerSource, Stats: cb.Stats, At: cb.At}
				lo, hi := bi*len(reportCorpus)/k, (bi+1)*len(reportCorpus)/k
				b.Reports = reportCorpus[lo:hi]
				if _, err := p.Append(b); err != nil {
					t.Fatalf("append shuffled batch %d: %v", bi, err)
				}
			}
			got, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			assertComponentsEqual(t, p.Graph, batch.Graph, fmt.Sprintf("shuffle k=%d", k))
			assertEdgeSetsEqual(t, p.Graph, batch.Graph, fmt.Sprintf("shuffle k=%d", k))
			assertResultsEqual(t, got, want, fmt.Sprintf("shuffle k=%d", k))
		})
	}
}

// --- Incremental-vs-rebuild benchmarks (ISSUE 2 acceptance) ---

var (
	incBenchOnce    sync.Once
	incBenchDataset *collect.Result
	incBenchReports []*reports.Report
	incBenchErr     error
)

// incrementalBenchWorld collects the bench-scale corpus once per binary.
func incrementalBenchWorld(b *testing.B) (*collect.Result, []*reports.Report) {
	b.Helper()
	incBenchOnce.Do(func() {
		var p *Pipeline
		p, incBenchErr = NewStreamingPipeline(context.Background(), Config{Scale: benchScale()}, 1)
		if incBenchErr == nil {
			incBenchDataset, incBenchReports = p.Source()
		}
	})
	if incBenchErr != nil {
		b.Fatalf("bench world: %v", incBenchErr)
	}
	return incBenchDataset, incBenchReports
}

// BenchmarkIncremental_FullRebuild is the baseline the streaming engine
// competes against: a complete core.Build of the corpus, the cost every new
// observation used to pay.
func BenchmarkIncremental_FullRebuild(b *testing.B) {
	ds, reportCorpus := incrementalBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg, err := core.Build(ds, reportCorpus, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mg.G.EdgeCount()), "edges")
	}
}

// BenchmarkIncremental_Append measures ingesting a 1% timeline delta into an
// engine warm with the other 99% — the steady-state cost of the streaming
// architecture. Engine state is reset between iterations via
// Snapshot/Restore (outside the timer), so every measured Ingest performs
// identical work.
func BenchmarkIncremental_Append(b *testing.B) {
	ds, reportCorpus := incrementalBenchWorld(b)
	feed := BatchFeed(ds, reportCorpus, 100)
	if len(feed) < 2 {
		b.Fatalf("feed too small: %d batches", len(feed))
	}
	delta := feed[len(feed)-1]
	base := core.NewEngine(core.DefaultConfig())
	for _, batch := range feed[:len(feed)-1] {
		if _, err := base.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := base.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(delta.Entries)), "delta_entries")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := core.RestoreEngine(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		// Restore churns decoder garbage; collect it outside the timer so
		// the measured op is the append, not the reset harness.
		runtime.GC()
		b.StartTimer()
		st, err := eng.Ingest(delta)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(st.Reclustered)), "reclustered_ecos")
		b.ReportMetric(float64(st.NewArtifacts), "new_artifacts")
	}
}

// BenchmarkIncremental_JournaledAppend is BenchmarkIncremental_Append with
// the ISSUE 6 durability tax in the measured op: the delta's journal record
// is marshalled and appended (fsync'd) to a WAL before the engine ingests
// it — exactly what serve's -wal mode does per accepted feed batch. The CI
// gate requires journaled ≤ 1.5× the in-memory append: durability must cost
// one fsync, not a second ingest. The WAL component is timed on its own and
// reported two ways: wal_append_ns (the mean, informational) and wal_min_ns
// (the per-iteration minimum, which the CI gate uses). The mean fsync
// latency on shared infrastructure swings severalfold with ambient disk
// load, but the minimum is the code's intrinsic durability tax — a
// structural regression (a second fsync, a bloated record) raises every
// iteration including the quietest one, while a busy disk does not. The
// compute side of the ratio comes from the same run (journaled mean minus
// WAL mean), so ingest noise cancels too.
func BenchmarkIncremental_JournaledAppend(b *testing.B) {
	ds, reportCorpus := incrementalBenchWorld(b)
	feed := BatchFeed(ds, reportCorpus, 100)
	if len(feed) < 2 {
		b.Fatalf("feed too small: %d batches", len(feed))
	}
	delta := feed[len(feed)-1]
	base := core.NewEngine(core.DefaultConfig())
	for _, batch := range feed[:len(feed)-1] {
		if _, err := base.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := base.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	j, err := wal.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportMetric(float64(len(delta.Entries)), "delta_entries")
	var walTime, walMin time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := core.RestoreEngine(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		walStart := time.Now()
		payload, err := json.Marshal(feedRecord{Index: len(feed) - 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Append(recFeed, payload); err != nil {
			b.Fatal(err)
		}
		walStep := time.Since(walStart)
		walTime += walStep
		if walMin == 0 || walStep < walMin {
			walMin = walStep
		}
		if _, err := eng.Ingest(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(walTime.Nanoseconds())/float64(b.N), "wal_append_ns")
	b.ReportMetric(float64(walMin.Nanoseconds()), "wal_min_ns")
}

// --- Append-growth benchmark (ISSUE 4 acceptance) ---
//
// The LSH-scoped re-clustering claim is that append cost tracks the delta,
// not the corpus: the same append into a 10× corpus must cost about the same
// as into a 1× corpus (acceptance: ≤ 2×). One world is built at 10× the
// bench scale and cut into 1000 timeline batches, so each batch is ≈1% of
// the 1× corpus; the benchmark warms an engine with a 100/400/998-batch
// prefix (1×/4×/10× corpus) plus the full report corpus, then times
// ingesting the SAME held-out final batch against each — identical delta
// work (embedding, scanning, report joins), growing corpus, so the ratio
// isolates exactly the corpus-scaling terms the partition scoping removes.

type growthState struct {
	snap  []byte
	delta core.Batch
}

var (
	growthMu          sync.Mutex
	growthDS          *collect.Result
	growthReps        []*reports.Report
	growthFeed        []core.Batch
	growthErr         error
	growthCache       map[int]*growthState
	reportGrowthCache map[int]*growthState
)

// growthWorldLocked lazily builds the shared 10×-bench-scale world both
// growth benchmarks cut their prefixes from. Callers hold growthMu.
func growthWorldLocked(b *testing.B) {
	b.Helper()
	if growthDS == nil && growthErr == nil {
		var p *Pipeline
		p, growthErr = NewStreamingPipeline(context.Background(), Config{Scale: benchScale() * 10}, 1)
		if growthErr == nil {
			growthDS, growthReps = p.Source()
			growthFeed = BatchFeed(growthDS, growthReps, 1000)
			growthCache = make(map[int]*growthState)
			reportGrowthCache = make(map[int]*growthState)
		}
	}
	if growthErr != nil {
		b.Fatalf("growth world: %v", growthErr)
	}
}

func growthSetup(b *testing.B, prefix int) *growthState {
	b.Helper()
	growthMu.Lock()
	defer growthMu.Unlock()
	growthWorldLocked(b)
	if st := growthCache[prefix]; st != nil {
		return st
	}
	if prefix+1 > len(growthFeed) {
		b.Fatalf("growth feed too small: %d batches, need %d", len(growthFeed), prefix+1)
	}
	// Warm with the entry prefix plus EVERY report, so the held-out delta
	// performs identical report-join work against each corpus size.
	warm := mergeBatches(growthFeed)
	warm.Entries = nil
	for _, fb := range growthFeed[:prefix] {
		warm.Entries = append(warm.Entries, fb.Entries...)
	}
	eng := core.NewEngine(core.DefaultConfig())
	if _, err := eng.Ingest(warm); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	last := growthFeed[len(growthFeed)-1]
	st := &growthState{snap: snap.Bytes(), delta: core.Batch{Entries: last.Entries, Stats: last.Stats, At: last.At}}
	growthCache[prefix] = st
	return st
}

// mergeBatches concatenates feed batches into one warm-up ingest. Per-entry
// stats are absolute, so the latest batch's stat per coordinate wins.
func mergeBatches(batches []core.Batch) core.Batch {
	var out core.Batch
	stats := make(map[string]collect.EntryStat)
	for _, b := range batches {
		out.Entries = append(out.Entries, b.Entries...)
		out.Reports = append(out.Reports, b.Reports...)
		for k, v := range b.Stats {
			stats[k] = v
		}
		if out.At.IsZero() {
			out.At = b.At
		}
	}
	out.Stats = stats
	return out
}

// BenchmarkIncremental_AppendGrowth measures a fixed ≈1%-of-base append at
// 1×/4×/10× corpus sizes. Flat (≤2× at 10×) means re-clustering is scoped to
// the touched LSH partitions; O(ecosystem) growth here is the regression the
// CI gate on BENCH_incremental.json catches.
func BenchmarkIncremental_AppendGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		prefix int
	}{{"1x", 100}, {"4x", 400}, {"10x", 998}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := growthSetup(b, size.prefix)
			b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.RestoreEngine(bytes.NewReader(st.snap))
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				is, err := eng.Ingest(st.delta)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(is.PartitionsReclustered), "partitions_touched")
				b.ReportMetric(float64(is.ArtifactsReclustered), "artifacts_reclustered")
				b.ReportMetric(float64(is.DirtyEcoItems), "dirty_eco_items")
				rebuilt := 0.0
				if is.CoexistingRebuilt {
					rebuilt = 1.0
				}
				b.ReportMetric(rebuilt, "coexisting_rebuilt")
			}
		})
	}
}

// BenchmarkIncremental_PublishGrowth measures the whole write path of one
// epoch publish — Ingest of the fixed ≈1% delta plus the Engine.View that
// publishes it — at 1×/4×/10× corpus sizes. Each iteration restores the
// warmed engine and takes one untimed View first, so the timed Ingest pays
// the copy-on-write of every shard, page and adjacency list it touches, as
// it does in a serving pipeline that publishes after every batch. Near
// flat (CI-gated ≤3× at 10×; the shard-table copies keep it above 1) means
// a publish no longer copies the corpus; a View that copies the corpus
// lands near the corpus ratio instead.
func BenchmarkIncremental_PublishGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		prefix int
	}{{"1x", 100}, {"4x", 400}, {"10x", 998}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := growthSetup(b, size.prefix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.RestoreEngine(bytes.NewReader(st.snap))
				if err != nil {
					b.Fatal(err)
				}
				eng.View()
				runtime.GC()
				b.StartTimer()
				if _, err := eng.Ingest(st.delta); err != nil {
					b.Fatal(err)
				}
				eng.View()
			}
			b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
		})
	}
}

// --- Report-append growth benchmark (ISSUE 5 acceptance) ---
//
// The scoped co-existing re-join claim is that a wanted-package arrival
// costs O(reports naming it), not O(report corpus): the same package delta
// ingested against a 10× report corpus must cost about the same as against
// a 1× corpus. The entry corpus is held CONSTANT across sizes (the shared
// 10× growth world minus the packages named by its first report) and only
// the URL-ordered report prefix grows, so the ratio isolates exactly the
// report-join term the posting-list index removes — before ISSUE 5 this
// delta triggered a full RemoveEdgesWhere + O(total reports) re-derivation.

// reportGrowthSetup warms an engine with the constant entry corpus plus a
// tenths/10 report prefix, holding out the packages the first report names;
// the held-out packages are the wanted-arrival delta every size re-ingests.
func reportGrowthSetup(b *testing.B, tenths int) *growthState {
	b.Helper()
	growthMu.Lock()
	defer growthMu.Unlock()
	growthWorldLocked(b)
	if st := reportGrowthCache[tenths]; st != nil {
		return st
	}
	if len(growthReps) < 10 {
		b.Fatalf("growth world has %d reports, need 10", len(growthReps))
	}
	prefix := len(growthReps) * tenths / 10
	held := make(map[string]bool)
	for _, coord := range growthReps[0].Packages {
		held[coord.Key()] = true
	}
	var warmEntries, deltaEntries []*collect.Entry
	for _, e := range growthDS.Entries {
		if held[e.Coord.Key()] {
			deltaEntries = append(deltaEntries, e)
		} else {
			warmEntries = append(warmEntries, e)
		}
	}
	if len(deltaEntries) == 0 {
		b.Fatal("first report names no collected packages")
	}
	warm := growthDS.BatchOf(warmEntries)
	eng := core.NewEngine(core.DefaultConfig())
	if _, err := eng.Ingest(core.Batch{
		Entries: warm.Entries, Stats: warm.Stats,
		Reports: growthReps[:prefix], At: warm.At,
	}); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	delta := growthDS.BatchOf(deltaEntries)
	st := &growthState{snap: snap.Bytes(), delta: core.Batch{Entries: delta.Entries, Stats: delta.Stats, At: delta.At}}
	reportGrowthCache[tenths] = st
	return st
}

// BenchmarkIncremental_ReportAppendGrowth measures a fixed wanted-package
// delta at 1×/4×/10× report-corpus sizes. Flat (≤2× at 10×, CI-gated at 3×
// for smoke noise) means the re-join is scoped to the reports naming the
// delta; O(report corpus) growth here is the regression the gate on
// BENCH_incremental.json catches.
func BenchmarkIncremental_ReportAppendGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		tenths int
	}{{"1x", 1}, {"4x", 4}, {"10x", 10}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := reportGrowthSetup(b, size.tenths)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.RestoreEngine(bytes.NewReader(st.snap))
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				is, err := eng.Ingest(st.delta)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if !is.CoexistingScoped && !is.CoexistingRebuilt {
					b.Fatal("delta did not trigger a co-existing re-join")
				}
				b.StartTimer()
				b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
				b.ReportMetric(float64(is.ReportsRejoined), "reports_rejoined")
				b.ReportMetric(float64(is.CoexistingEdgesReplaced), "coexisting_edges_replaced")
				b.ReportMetric(float64(len(eng.Reports())), "reports_total")
				rebuilt := 0.0
				if is.CoexistingRebuilt {
					rebuilt = 1.0
				}
				b.ReportMetric(rebuilt, "coexisting_rebuilt")
			}
		})
	}
}

// TestAnalyzeCacheMatchesFresh verifies the Results-cache invalidation: an
// Analyze served partly from cache after a delta append equals a fresh
// full analysis of the same state.
func TestAnalyzeCacheMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.05}, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest all but the last batch, analyze (warms the cache), then append
	// the final delta and analyze again — partially from cache.
	for p.PendingBatches() > 1 {
		if _, _, err := p.AppendNext(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.AppendNext(); err != nil {
		t.Fatal(err)
	}
	cached, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh analysis of identical state: republish with every block dirty,
	// forcing the next epoch's Results to recompute everything.
	p.mu.Lock()
	p.dirty = allDirty()
	p.publishLocked()
	p.mu.Unlock()
	fresh, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, cached, fresh, "cache-vs-fresh")
}

// --- Checkpoint-growth benchmark (ISSUE 10 acceptance) ---
//
// The segmented-checkpoint claim is that snapshot cost is O(delta), not
// O(corpus): after the same held-out batch lands in a 1× and a 10× corpus,
// the next checkpoint writes only the chunks that batch dirtied, so its
// cost must stay roughly flat as the corpus grows. Each iteration restores
// the warmed corpus, attaches a fresh content store, takes one priming
// checkpoint (the full re-base — deliberately outside the timer), ingests
// the delta, and times only the delta checkpoint. The CI gate compares the
// 10× and 1× ns/op via checkpoint_growth_ratio in BENCH_incremental.json.
func BenchmarkIncremental_CheckpointGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		prefix int
	}{{"1x", 100}, {"4x", 400}, {"10x", 998}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := growthSetup(b, size.prefix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := castore.Open(filepath.Join(b.TempDir(), "store"), nil)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.RestoreEngineWithStore(bytes.NewReader(st.snap), store)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Snapshot(io.Discard); err != nil { // priming full re-base
					b.Fatal(err)
				}
				if _, err := eng.Ingest(st.delta); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				if err := eng.Snapshot(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer clears extra metrics reported
			// before it.
			b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
		})
	}
}

package malgraph

// Tests for the streaming ingest architecture's determinism contract
// (ISSUE 2): ingesting the corpus in any batch partition must yield a graph
// whose components and all RQ analyses are identical to a one-shot build
// (the whole corpus ingested as one batch).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
	"malgraph/internal/xrand"
)

// Append ingests one raw batch, unjournaled, and publishes it: the tests
// partition a corpus into arbitrary core.Batch values this way. A raw
// batch has no journal record kind, so on a pipeline with a journal
// attached Append refuses and changes nothing.
func (p *Pipeline) Append(b core.Batch) (core.IngestStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal != nil {
		return core.IngestStats{}, errors.New("malgraph: append: a raw batch cannot be journaled; use AppendPending or AppendExternal")
	}
	st, err := p.ingestLocked(b)
	if err == nil {
		p.publishLocked()
	}
	return st, err
}

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

// stateDigest returns e's Engine.Digest without its stamps section. The
// stamps (the last applied journal sequence and the feed cursor) record how
// the state arrived, not what it is: a re-delivered record or a different
// feed moves them, while every other section must not move.
func stateDigest(t *testing.T, e *core.Engine) map[string]string {
	t.Helper()
	d, err := e.Digest()
	if err != nil {
		t.Fatal(err)
	}
	delete(d, "stamps")
	return d
}

// assertSameState requires got and want to hold the same MALGRAPH state —
// dataset, graph as a set of nodes and attributed edges, reports,
// clustering items and partitions, import cache and co-existing index —
// naming each digest section that differs.
func assertSameState(t *testing.T, got, want *core.Engine, label string) {
	t.Helper()
	gd, wd := stateDigest(t, got), stateDigest(t, want)
	for _, name := range slices.Sorted(maps.Keys(wd)) {
		if gd[name] != wd[name] {
			t.Errorf("%s: digest section %s differs", label, name)
		}
	}
}

// TestIncrementalTenBatchesMatchesOneShot is the acceptance criterion:
// Scale=0.05, the corpus ingested in 10 time-ordered batches via
// Engine.Ingest, producing identical Results (all RQ tables) to a one-shot
// build.
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
	assertSameState(t, p.Engine, batch.Engine, "10-batch")
	assertResultsEqual(t, got, want, "10-batch")

	// The rendered report — every table and figure — must match too.
	var gb, wb bytes.Buffer
	got.Render(&gb)
	want.Render(&wb)
	if gb.String() != wb.String() {
		t.Error("10-batch rendered results differ from one-shot")
	}
}

// shuffledBatches re-partitions p's collected world into k batches of
// entries shuffled by seed, with the report corpus in contiguous URL-order
// slices. The same world and seed give the same batches.
func shuffledBatches(p *Pipeline, k int, seed uint64) []core.Batch {
	ds, reportCorpus := p.Source()
	entries := make([]*collect.Entry, len(ds.Entries))
	copy(entries, ds.Entries)
	rng := xrand.New(seed)
	for i := len(entries) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		entries[i], entries[j] = entries[j], entries[i]
	}
	var out []core.Batch
	for bi, cb := range collect.PartitionBatches(ds, entries, k) {
		lo, hi := bi*len(reportCorpus)/k, (bi+1)*len(reportCorpus)/k
		out = append(out, core.Batch{Entries: cb.Entries, PerSource: cb.PerSource, Stats: cb.Stats, Reports: reportCorpus[lo:hi], At: cb.At})
	}
	return out
}

// TestShuffledBatchIngestMatchesOneShot is the satellite property test: the
// corpus shuffled into k ∈ {1, 3, 10} batches must reproduce the one-shot
// state and every Results table, for the same seed.
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
			// Seeded by k, so every subtest sees a different order.
			for bi, b := range shuffledBatches(p, k, uint64(1000+k)) {
				if _, err := p.Append(b); err != nil {
					t.Fatalf("append shuffled batch %d: %v", bi, err)
				}
			}
			got, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			assertSameState(t, p.Engine, batch.Engine, fmt.Sprintf("shuffle k=%d", k))
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
// competes against: a complete one-batch build of the corpus, the cost
// every new observation used to pay.
func BenchmarkIncremental_FullRebuild(b *testing.B) {
	ds, reportCorpus := incrementalBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg := ingestOneShot(b, ds, reportCorpus)
		b.ReportMetric(float64(mg.G.EdgeCount()), "edges")
	}
}

// BenchmarkIncremental_Append measures ingesting a 1% timeline delta into an
// engine warm with the other 99% — the steady-state cost of the streaming
// architecture. Engine state is reset between iterations by restoring a
// checkpoint (outside the timer), so every measured Ingest performs
// identical work, with dirty tracking on as in a serving pipeline.
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
	manifest, store := checkpointed(b, base, b.TempDir())
	b.ReportMetric(float64(len(delta.Entries)), "delta_entries")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := core.RestoreEngineWithStore(bytes.NewReader(manifest), store)
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
	manifest, store := checkpointed(b, base, b.TempDir())
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
		eng, err := core.RestoreEngineWithStore(bytes.NewReader(manifest), store)
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

// growthState is one warmed corpus: its checkpoint manifest, the content
// store holding the chunks (in storeDir), and the held-out delta.
type growthState struct {
	manifest []byte
	store    *castore.Store
	storeDir string
	delta    core.Batch
}

var (
	growthMu   sync.Mutex
	growthPipe *Pipeline
	growthDS   *collect.Result
	growthReps []*reports.Report
	growthFeed []core.Batch
	growthErr  error
	// growthDir holds the cached states' stores. The caches outlive the
	// benchmark that filled them, so the stores cannot live under its
	// b.TempDir; TestMain removes the directory when the process exits.
	growthDir         string
	growthCache       map[int]*growthState
	reportGrowthCache map[int]*growthState
)

func TestMain(m *testing.M) {
	code := m.Run()
	if growthDir != "" {
		os.RemoveAll(growthDir)
	}
	os.Exit(code)
}

// checkpointed attaches a content store in dir to eng and checkpoints it,
// returning the manifest a reset harness restores from and the store.
func checkpointed(b *testing.B, eng *core.Engine, dir string) ([]byte, *castore.Store) {
	b.Helper()
	store := openStore(b, dir)
	eng.AttachStore(store)
	var manifest bytes.Buffer
	if err := eng.Snapshot(&manifest); err != nil {
		b.Fatal(err)
	}
	return manifest.Bytes(), store
}

// newGrowthState checkpoints a warmed engine into its own store under
// growthDir.
func newGrowthState(b *testing.B, eng *core.Engine, name string, delta core.Batch) *growthState {
	b.Helper()
	dir := filepath.Join(growthDir, name)
	manifest, store := checkpointed(b, eng, dir)
	return &growthState{manifest: manifest, store: store, storeDir: dir, delta: delta}
}

// restore rebuilds the warmed engine from the state's store.
func (st *growthState) restore(b *testing.B) *core.Engine {
	b.Helper()
	eng, err := core.RestoreEngineWithStore(bytes.NewReader(st.manifest), st.store)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// growthWorldLocked lazily builds the shared 10×-bench-scale world both
// growth benchmarks cut their prefixes from. Callers hold growthMu.
func growthWorldLocked(b *testing.B) {
	b.Helper()
	if growthDS == nil && growthErr == nil {
		var p *Pipeline
		p, growthErr = NewStreamingPipeline(context.Background(), Config{Scale: benchScale() * 10}, 1)
		if growthErr == nil {
			growthDir, growthErr = os.MkdirTemp("", "malgraph-growth-")
		}
		if growthErr == nil {
			growthPipe = p
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
	last := growthFeed[len(growthFeed)-1]
	st := newGrowthState(b, eng, fmt.Sprintf("append-%d", prefix), core.Batch{Entries: last.Entries, Stats: last.Stats, At: last.At})
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
				eng := st.restore(b)
				runtime.GC()
				b.StartTimer()
				is, err := eng.Ingest(st.delta)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(is.PartitionsReclustered), "partitions_touched")
				b.ReportMetric(float64(is.ArtifactsReclustered), "artifacts_reclustered")
				b.ReportMetric(float64(is.DirtyEcoItems), "dirty_eco_items")
			}
		})
	}
}

// BenchmarkResults_DirtyEpochGrowth times the first Results after the fixed
// ≈1% delta lands in a 1×/4×/10× corpus: each iteration restores the warmed
// engine into the growth world's pipeline, computes its Results (the base
// the delta dirties), appends the delta, and times the next Results, which
// recomputes every block the delta dirtied. The blocks recompute over the
// whole corpus, so the 10×/1× ratio in BENCH_incremental.json shows how far
// Results is from O(delta); it has no CI gate yet.
func BenchmarkResults_DirtyEpochGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		prefix int
	}{{"1x", 100}, {"4x", 400}, {"10x", 998}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := growthSetup(b, size.prefix)
			p := growthPipe
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.AdoptEngine(st.restore(b))
				if _, err := p.Analyze(); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Append(st.delta); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				if _, err := p.Analyze(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
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
				eng := st.restore(b)
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
// report-join term the per-coordinate report index removes.

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
	delta := growthDS.BatchOf(deltaEntries)
	st := newGrowthState(b, eng, fmt.Sprintf("report-%d", tenths), core.Batch{Entries: delta.Entries, Stats: delta.Stats, At: delta.At})
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
				eng := st.restore(b)
				runtime.GC()
				b.StartTimer()
				is, err := eng.Ingest(st.delta)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if !is.CoexistingScoped {
					b.Fatal("delta did not trigger a co-existing re-join")
				}
				b.StartTimer()
				b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
				b.ReportMetric(float64(is.ReportsRejoined), "reports_rejoined")
				b.ReportMetric(float64(is.CoexistingEdgesReplaced), "coexisting_edges_replaced")
				b.ReportMetric(float64(len(eng.Reports())), "reports_total")
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
// cost must stay roughly flat as the corpus grows. Each iteration copies
// the warmed corpus's store (its checkpoint is the full re-base), restores
// the corpus from the copy, ingests the delta — all outside the timer — and
// times only the delta checkpoint. The copy matters: the store skips blobs
// it already holds, so checkpointing the same delta twice into one store
// would write nothing the second time. The timed manifest goes to a
// byte-counting writer and is reported as manifest_bytes. The CI gates
// compare the 10× and 1× ns/op via checkpoint_growth_ratio and the 10× and
// 1× manifest_bytes via manifest_growth_10x_vs_1x in BENCH_incremental.json:
// a manifest that grows with the corpus carries state the store should.
func BenchmarkIncremental_CheckpointGrowth(b *testing.B) {
	for _, size := range []struct {
		name   string
		prefix int
	}{{"1x", 100}, {"4x", 400}, {"10x", 998}} {
		b.Run("size="+size.name, func(b *testing.B) {
			st := growthSetup(b, size.prefix)
			dir := filepath.Join(b.TempDir(), "store")
			var manifest byteCounter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				copyDir(b, st.storeDir, dir)
				eng, err := core.RestoreEngineWithStore(bytes.NewReader(st.manifest), openStore(b, dir))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Ingest(st.delta); err != nil {
					b.Fatal(err)
				}
				manifest = 0
				runtime.GC()
				b.StartTimer()
				if err := eng.Snapshot(&manifest); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer clears extra metrics reported
			// before it.
			b.ReportMetric(float64(len(st.delta.Entries)), "delta_entries")
			b.ReportMetric(float64(manifest), "manifest_bytes")
		})
	}
}

// byteCounter is an io.Writer that counts the bytes written to it.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(b *testing.B, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	for _, en := range entries {
		if !en.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/xrand"
)

// ingestPartitioned shuffles the dataset with a seeded RNG, splits it into k
// entry batches with reports interleaved round-robin, and ingests them.
func ingestPartitioned(t *testing.T, ds *collect.Result, reps []*reports.Report, k int, shuffleSeed uint64) *Engine {
	t.Helper()
	entries := make([]*collect.Entry, len(ds.Entries))
	copy(entries, ds.Entries)
	rng := xrand.New(shuffleSeed)
	for i := len(entries) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		entries[i], entries[j] = entries[j], entries[i]
	}
	eng := NewEngine(DefaultConfig())
	for b := 0; b < k; b++ {
		lo, hi := b*len(entries)/k, (b+1)*len(entries)/k
		batch := Batch{Entries: entries[lo:hi], At: ds.CollectedAt}
		for ri, r := range reps {
			if ri%k == b {
				batch.Reports = append(batch.Reports, r)
			}
		}
		if _, err := eng.Ingest(batch); err != nil {
			t.Fatalf("ingest batch %d/%d: %v", b+1, k, err)
		}
	}
	return eng
}

// reference ingests b, a whole corpus, into a fresh engine: the one-shot
// build a partitioned ingest of the same corpus must reproduce. b carries
// the per-source accounting the partitioned batches carry, so the dataset
// sections compare.
func reference(t *testing.T, cfg Config, b Batch) *Engine {
	t.Helper()
	eng := NewEngine(cfg)
	if _, err := eng.Ingest(b); err != nil {
		t.Fatal(err)
	}
	return eng
}

// assertEngineMatchesBuild requires eng to equal the one-shot reference in
// every digest section, and the indexes derived from that state, which the
// digest does not hash, to match too.
func assertEngineMatchesBuild(t *testing.T, eng, ref *Engine, label string) {
	t.Helper()
	assertSameDigest(t, eng, ref, label)
	got, want := eng.Graph(), ref.Graph()
	if !reflect.DeepEqual(got.SimilarClusters, want.SimilarClusters) {
		t.Errorf("%s: similar clusters differ", label)
	}
	if !reflect.DeepEqual(got.DuplicateGroups(), want.DuplicateGroups()) {
		t.Errorf("%s: duplicate groups differ", label)
	}
	if g, w := got.reportsByPkg.Keys(), want.reportsByPkg.Keys(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: report index keys differ: got %d keys, want %d", label, len(g), len(w))
	}
	for _, id := range want.reportsByPkg.Keys() {
		wantReps, gotReps := want.ReportsByPackage(id), got.ReportsByPackage(id)
		if len(gotReps) != len(wantReps) {
			t.Errorf("%s: reports for %s = %d, want %d", label, id, len(gotReps), len(wantReps))
			continue
		}
		for i := range wantReps {
			if gotReps[i].URL != wantReps[i].URL {
				t.Errorf("%s: report %d for %s = %s, want %s", label, i, id, gotReps[i].URL, wantReps[i].URL)
			}
		}
	}
}

// TestEngineBatchPartitionsMatchBuild is the core-level determinism
// contract: any shuffled partition of the corpus, ingested batch by batch,
// yields the same state (every digest section) and derived indexes as a
// one-shot ingest.
func TestEngineBatchPartitionsMatchBuild(t *testing.T) {
	ds, reps := miniDataset(t)
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	for _, k := range []int{1, 2, 3, 5} {
		for shuffle := uint64(1); shuffle <= 3; shuffle++ {
			eng := ingestPartitioned(t, ds, reps, k, shuffle)
			assertEngineMatchesBuild(t, eng, want, fmt.Sprintf("k=%d shuffle=%d", k, shuffle))
		}
	}
}

// TestEngineIngestIdempotent re-ingests the full corpus into an
// already-complete engine: everything must no-op.
func TestEngineIngestIdempotent(t *testing.T) {
	ds, reps := miniDataset(t)
	eng := NewEngine(DefaultConfig())
	full := ds.BatchOf(ds.Entries)
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Stats: full.Stats, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	before := digestOf(t, eng)
	beforeStats := fmt.Sprintf("%+v", eng.Dataset().PerSource)
	// Replayed batches carry their accounting too (a warm-restarted server
	// drains the same feed); nothing may double-count.
	st, err := eng.Ingest(Batch{Entries: ds.Entries, Stats: full.Stats, Reports: reps})
	if err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprintf("%+v", eng.Dataset().PerSource); after != beforeStats {
		t.Fatalf("re-ingest double-counted source stats:\n before %s\n after  %s", beforeStats, after)
	}
	if st.NewEntries != 0 || st.UpdatedEntries != 0 || st.NewArtifacts != 0 || st.NewReports != 0 {
		t.Fatalf("re-ingest changed state: %+v", st)
	}
	if st.SimilarChanged() || st.CoexistingChanged() || st.DependencyChanged() || st.DatasetChanged() {
		t.Fatalf("re-ingest dirtied analyses: %+v", st)
	}
	if diff := digestDiff(digestOf(t, eng), before); len(diff) > 0 {
		t.Fatalf("re-ingest changed digest sections %v", diff)
	}
}

// TestEngineIngestStats sanity-checks the invalidation signal on a fresh
// full ingest.
func TestEngineIngestStats(t *testing.T) {
	ds, reps := miniDataset(t)
	eng := NewEngine(DefaultConfig())
	st, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewEntries != len(ds.Entries) || st.NewArtifacts != len(ds.Available()) {
		t.Fatalf("entry counts: %+v", st)
	}
	if st.NewReports != len(reps) {
		t.Fatalf("report counts: %+v", st)
	}
	// A fresh in-order corpus is the pure append path: no report needed a
	// re-join and nothing was rebuilt, yet the stage still changed.
	if st.CoexistingScoped || st.ReportsRejoined != 0 || !st.CoexistingChanged() {
		t.Fatalf("coexisting scope on fresh ingest: %+v", st)
	}
	if !st.SimilarChanged() || !st.DependencyChanged() || !st.DatasetChanged() {
		t.Fatalf("dirty flags: %+v", st)
	}
	if st.DuplicatedDelta != eng.Graph().G.EdgeCount(graph.Duplicated) ||
		st.SimilarDelta != eng.Graph().G.EdgeCount(graph.Similar) ||
		st.DependencyDelta != eng.Graph().G.EdgeCount(graph.Dependency) ||
		st.CoexistingDelta != eng.Graph().G.EdgeCount(graph.Coexisting) {
		t.Fatalf("edge deltas on fresh ingest must equal totals: %+v", st)
	}
}

// TestEngineSnapshotRestore checkpoints mid-stream, restores, finishes
// ingesting, and requires the result to match both the uninterrupted engine
// and the one-shot build.
func TestEngineSnapshotRestore(t *testing.T) {
	ds, reps := miniDataset(t)
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Stats: ds.BatchOf(ds.Entries).Stats, Reports: reps, At: ds.CollectedAt})

	half := len(ds.Entries) / 2
	first := Batch{Entries: ds.Entries[:half], Stats: ds.BatchOf(ds.Entries[:half]).Stats, Reports: reps[:1], At: ds.CollectedAt}
	second := Batch{Entries: ds.Entries[half:], Stats: ds.BatchOf(ds.Entries[half:]).Stats, Reports: reps[1:]}
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(first); err != nil {
		t.Fatal(err)
	}
	restored := roundTrip(t, eng)
	// The restored engine must already match the snapshotted one.
	assertSameDigest(t, restored, eng, "restored")
	// A warm-restarted server replays the whole feed: the first batch must
	// no-op (including its accounting), the second completes the corpus.
	for _, b := range []Batch{first, second} {
		if _, err := restored.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	assertEngineMatchesBuild(t, restored, want, "restored")
	// Every entry of the hand-built corpus carries its artifact, so each
	// source's accounting is one Total per package it reported.
	wantStats := make(map[sources.ID]collect.SourceStats)
	for _, e := range ds.Entries {
		for _, id := range e.Sources {
			st := wantStats[id]
			st.Total++
			wantStats[id] = st
		}
	}
	if len(restored.Dataset().PerSource) != len(wantStats) {
		t.Fatalf("replayed accounting %+v, want %+v", restored.Dataset().PerSource, wantStats)
	}
	for id, w := range wantStats {
		if got := restored.Dataset().PerSource[id]; got != w {
			t.Fatalf("replayed accounting for %s = %+v, want %+v", id, got, w)
		}
	}

	if restored.Dataset().TotalMR() != ds.TotalMR() {
		t.Fatalf("restored dataset MR %v, want %v", restored.Dataset().TotalMR(), ds.TotalMR())
	}
	if len(restored.Reports()) != len(reps) {
		t.Fatalf("restored reports = %d", len(restored.Reports()))
	}
}

// TestEngineLateArtifactUpsert exercises the merge path: a package first
// observed by two sources without an artifact gains one (plus a third source)
// later and must join the similarity stage, and its duplicated clique must be
// re-derived hash-confirmed. A neighbour whose name ends in the package's own
// key ("x|<eco>/<name>") keeps its edge: the re-derivation touches only the
// package's records.
// lateArtifactFixture returns the mini corpus with the duplicated entry
// stripped of its artifact and third source (stripped, plus a neighbour
// whose coordinate key extends the entry's), and the full entry whose
// upsert restores both.
func lateArtifactFixture(t *testing.T) (ds *collect.Result, reps []*reports.Report, stripped []*collect.Entry, full, neighbour *collect.Entry) {
	t.Helper()
	ds, reps = miniDataset(t)
	// Strip the artifact and third source off the duplicated entry.
	stripped = make([]*collect.Entry, 0, len(ds.Entries)+1)
	for _, e := range ds.Entries {
		if e.Coord.Name == "acookie" {
			full = e
			bare := *e
			bare.Artifact = nil
			bare.Availability = collect.Missing
			bare.Sources = e.Sources[:2]
			stripped = append(stripped, &bare)
			continue
		}
		stripped = append(stripped, e)
	}
	if full == nil {
		t.Fatal("fixture missing acookie")
	}
	neighbour = &collect.Entry{
		Coord:        full.Coord,
		Availability: collect.Missing,
		Sources:      full.Sources[:2],
		ReleasedAt:   full.ReleasedAt,
	}
	neighbour.Coord.Name = "x|" + strings.TrimSuffix(full.Coord.Key(), "@"+full.Coord.Version)
	stripped = append(stripped, neighbour)
	return ds, reps, stripped, full, neighbour
}

func TestEngineLateArtifactUpsert(t *testing.T) {
	ds, reps, stripped, full, neighbour := lateArtifactFixture(t)
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: stripped, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Graph().G.EdgeCount(graph.Duplicated); got != 2 { // one name+version edge each
		t.Fatalf("duplicated edges before the artifact = %d, want 2", got)
	}

	st, err := eng.Ingest(Batch{Entries: []*collect.Entry{full}})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewEntries != 0 || st.UpdatedEntries != 1 || st.NewArtifacts != 1 {
		t.Fatalf("upsert stats: %+v", st)
	}
	if got := eng.Graph().G.EdgeCount(graph.Duplicated); got != 4 { // C(3,2) + the neighbour's
		t.Fatalf("duplicated edges after upsert = %d, want 4", got)
	}
	recs := make(map[string]bool, len(full.Sources))
	for _, s := range full.Sources {
		recs[RecordNodeID(s, full.Coord)] = true
	}
	for _, ed := range eng.Graph().G.Edges(graph.Duplicated) {
		if recs[ed.From] && ed.Attrs["match"] != "name+version+hash" {
			t.Fatalf("edge %s–%s not re-derived: %v", ed.From, ed.To, ed.Attrs)
		}
	}
	merged, ok := eng.Graph().EntryByNodeID(NodeID(full.Coord))
	if !ok || merged.Artifact == nil || len(merged.Sources) != 3 {
		t.Fatalf("merged entry wrong: %+v ok=%v", merged, ok)
	}
	n, _ := eng.Graph().G.Node(NodeID(full.Coord))
	if n.Attrs["occ"] != "3" || n.Attrs["avail"] != collect.FromSource.String() {
		t.Fatalf("node attrs not refreshed: %v", n.Attrs)
	}
	want := reference(t, DefaultConfig(), Batch{
		Entries: append(append([]*collect.Entry(nil), ds.Entries...), neighbour),
		Reports: reps,
		At:      ds.CollectedAt,
	})
	assertEngineMatchesBuild(t, eng, want, "late artifact")
}

// TestEngineUpsertJournalsChangedAttrsInOrder refreshes an updated entry's
// canonical node 20 times over: every run must journal the same ops, and
// the node's attr ops must name only the attributes whose value changed, in
// key order, so equal states give equal graph-chunk bytes.
func TestEngineUpsertJournalsChangedAttrsInOrder(t *testing.T) {
	var first []graph.Op
	for run := 0; run < 20; run++ {
		ds, reps, stripped, full, _ := lateArtifactFixture(t)
		eng := NewEngine(DefaultConfig())
		if _, err := eng.Ingest(Batch{Entries: stripped, Reports: reps, At: ds.CollectedAt}); err != nil {
			t.Fatal(err)
		}
		id := NodeID(full.Coord)
		before, _ := eng.Graph().G.Node(id)
		eng.Graph().G.EnableJournal()
		if _, err := eng.Ingest(Batch{Entries: []*collect.Entry{full}}); err != nil {
			t.Fatal(err)
		}
		ops := eng.Graph().G.JournalOps()
		if run > 0 {
			if !reflect.DeepEqual(ops, first) {
				t.Fatalf("run %d journaled %+v, run 0 %+v", run, ops, first)
			}
			continue
		}
		first = ops
		after, _ := eng.Graph().G.Node(id)
		var changed, got []string
		for k, v := range after.Attrs {
			if old, ok := before.Attrs[k]; !ok || old != v {
				changed = append(changed, k)
			}
		}
		sort.Strings(changed)
		for _, op := range ops {
			if op.Kind == "attr" && op.ID == id {
				got = append(got, op.Key)
			}
		}
		if len(changed) == 0 || !slices.Equal(got, changed) {
			t.Fatalf("attr ops on %s name %v, want the changed keys in order %v", id, got, changed)
		}
	}
}

// TestEngineRestoreReclustersSamePartitions is the LSH persistence contract:
// a restored engine carries the same partition structure and per-partition
// cluster cache, so its next ingest re-clusters exactly the partitions the
// uninterrupted engine would — no more (no O(ecosystem) fallback), no fewer.
func TestEngineRestoreReclustersSamePartitions(t *testing.T) {
	ds, reps := miniDataset(t)
	half := len(ds.Entries) - 2
	warm := Batch{Entries: ds.Entries[:half], Reports: reps, At: ds.CollectedAt}
	delta := Batch{Entries: ds.Entries[half:]}

	live := NewEngine(DefaultConfig())
	if _, err := live.Ingest(warm); err != nil {
		t.Fatal(err)
	}
	restored := roundTrip(t, live)

	// The rebuilt LSH index must expose identical partitions per ecosystem.
	for eco, sh := range live.shards {
		if sh.lsh == nil {
			continue
		}
		rsh := restored.shards[eco]
		if rsh == nil || rsh.lsh == nil {
			t.Fatalf("%s: restored engine lost its LSH index", eco)
		}
		wantParts, gotParts := sh.lsh.Partitions(), rsh.lsh.Partitions()
		if !reflect.DeepEqual(gotParts, wantParts) {
			t.Fatalf("%s: partitions differ: got %v want %v", eco, gotParts, wantParts)
		}
		for _, key := range wantParts {
			if !reflect.DeepEqual(rsh.lsh.Members(key), sh.lsh.Members(key)) {
				t.Fatalf("%s: members of %s differ", eco, key)
			}
		}
		if !reflect.DeepEqual(rsh.clustersByPart, sh.clustersByPart) {
			t.Fatalf("%s: restored per-partition cluster cache differs", eco)
		}
	}

	// The same delta must produce identical recluster scope and final state.
	liveStats, err := live.Ingest(delta)
	if err != nil {
		t.Fatal(err)
	}
	restoredStats, err := restored.Ingest(delta)
	if err != nil {
		t.Fatal(err)
	}
	if liveStats.PartitionsReclustered != restoredStats.PartitionsReclustered ||
		liveStats.ArtifactsReclustered != restoredStats.ArtifactsReclustered ||
		liveStats.DirtyEcoItems != restoredStats.DirtyEcoItems {
		t.Fatalf("recluster scope differs:\n live     %+v\n restored %+v", liveStats, restoredStats)
	}
	if liveStats.SimilarDelta != restoredStats.SimilarDelta {
		t.Fatalf("similar deltas differ: %d vs %d", liveStats.SimilarDelta, restoredStats.SimilarDelta)
	}
	assertSameDigest(t, restored, live, "post-delta")
	if !reflect.DeepEqual(live.Graph().SimilarClusters, restored.Graph().SimilarClusters) {
		t.Fatal("post-delta clusters differ")
	}
}

// TestEngineIngestScopeAccounting checks the recluster-scope stats: a delta
// landing in one known family re-clusters that family's partition (plus any
// partitions its own artifacts form), never the whole ecosystem.
func TestEngineIngestScopeAccounting(t *testing.T) {
	ds, reps := miniDataset(t)
	// Hold back one alpha variant (a member of the camA similarity family).
	var held *collect.Entry
	rest := make([]*collect.Entry, 0, len(ds.Entries))
	for _, e := range ds.Entries {
		if e.Coord.Name == "alpha-three" {
			held = e
			continue
		}
		rest = append(rest, e)
	}
	if held == nil {
		t.Fatal("fixture missing alpha-three")
	}
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: rest, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Ingest(Batch{Entries: []*collect.Entry{held}})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsReclustered != 1 {
		t.Fatalf("partitions reclustered = %d, want 1 (alpha family only): %+v", st.PartitionsReclustered, st)
	}
	if st.ArtifactsReclustered >= st.DirtyEcoItems {
		t.Fatalf("re-cluster scope not partial: %d of %d", st.ArtifactsReclustered, st.DirtyEcoItems)
	}
	if st.ArtifactsReclustered != 3 { // alpha-one, alpha-two, alpha-three
		t.Fatalf("artifacts reclustered = %d, want 3", st.ArtifactsReclustered)
	}
}

// --- Scoped co-existing re-join (ISSUE 5) ---

// holdOut splits the fixture dataset into (rest, held) around one package name.
func holdOut(t *testing.T, ds *collect.Result, name string) (rest []*collect.Entry, held *collect.Entry) {
	t.Helper()
	for _, e := range ds.Entries {
		if e.Coord.Name == name {
			held = e
			continue
		}
		rest = append(rest, e)
	}
	if held == nil {
		t.Fatalf("fixture missing %s", name)
	}
	return rest, held
}

// coexAttrByPair maps each co-existing pair to its "report" attr (the owning
// report URL under the first-writer contract).
func coexAttrByPair(mg *MalGraph) map[string]string {
	out := make(map[string]string)
	for _, e := range mg.G.Edges(graph.Coexisting) {
		out[coexPairKey(e.From, e.To)] = e.Attrs["report"]
	}
	return out
}

// TestCoexistingScopedWantedArrival is the tentpole contract: a wanted
// package arriving re-joins only the reports that name it — no rebuild —
// and still converges to the one-shot build bit for bit.
func TestCoexistingScopedWantedArrival(t *testing.T) {
	ds, reps := miniDataset(t)
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	rest, held := holdOut(t, ds, "alpha-three") // named by report r/2 only

	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: rest, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Ingest(Batch{Entries: []*collect.Entry{held}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CoexistingScoped || st.ReportsRejoined != 1 {
		t.Fatalf("re-join not scoped to the naming report: %+v", st)
	}
	if !st.CoexistingChanged() {
		t.Fatalf("scoped re-join must dirty RQ4: %+v", st)
	}
	assertEngineMatchesBuild(t, eng, want, "wanted-arrival")
}

// TestCoexistingLateReportOwnershipRepair pins the first-writer contract: a
// late-arriving report with a smaller URL than the current owner of a pair
// must take over that edge's attrs — exactly one surgical edge replacement.
func TestCoexistingLateReportOwnershipRepair(t *testing.T) {
	ds, _ := miniDataset(t)
	pkgs := []ecosys.Coord{
		{Ecosystem: ecosys.PyPI, Name: "alpha-one", Version: "1.0.0"},
		{Ecosystem: ecosys.PyPI, Name: "alpha-two", Version: "1.0.0"},
	}
	ra := &reports.Report{URL: "https://z.example/a", Site: "z.example", Packages: pkgs}
	rb := &reports.Report{URL: "https://z.example/b", Site: "z.example", Packages: pkgs}

	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: []*reports.Report{ra, rb}, At: ds.CollectedAt})

	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: []*reports.Report{rb}, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	pair := coexPairKey(NodeID(pkgs[0]), NodeID(pkgs[1]))
	if got := coexAttrByPair(eng.Graph())[pair]; got != rb.URL {
		t.Fatalf("pre-repair owner = %q, want %q", got, rb.URL)
	}
	st, err := eng.Ingest(Batch{Reports: []*reports.Report{ra}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CoexistingScoped {
		t.Fatalf("late report should take the scoped path: %+v", st)
	}
	if st.CoexistingEdgesReplaced != 1 {
		t.Fatalf("edges replaced = %d, want exactly the repaired pair: %+v", st.CoexistingEdgesReplaced, st)
	}
	if got := coexAttrByPair(eng.Graph())[pair]; got != ra.URL {
		t.Fatalf("post-repair owner = %q, want the URL-smallest report %q", got, ra.URL)
	}
	assertEngineMatchesBuild(t, eng, want, "late-report")
}

// TestCoexistingHubPathGrowth exercises the non-monotone case: a report
// group beyond PairwiseLimit changes its hub-and-path pair set as members
// arrive, so the scoped path must replace the group's edges and re-join
// every overlapping report — and still match one-shot.
func TestCoexistingHubPathGrowth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PairwiseLimit = 3
	ds, _ := miniDataset(t)
	var names []ecosys.Coord
	for _, e := range ds.Entries {
		if e.Coord.Ecosystem == ecosys.PyPI {
			names = append(names, e.Coord)
		}
	}
	if len(names) < 5 {
		t.Fatalf("fixture has %d PyPI packages, need 5", len(names))
	}
	big := &reports.Report{URL: "https://z.example/big", Site: "z.example", Packages: names}
	side := &reports.Report{URL: "https://z.example/side", Site: "z.example", Packages: names[:2]}
	reps := []*reports.Report{big, side}

	want := reference(t, cfg, Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	rest, held := holdOut(t, ds, "alpha-three")
	eng := NewEngine(cfg)
	if _, err := eng.Ingest(Batch{Entries: rest, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Ingest(Batch{Entries: []*collect.Entry{held}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CoexistingScoped {
		t.Fatalf("hub-path growth should stay scoped: %+v", st)
	}
	if st.ReportsRejoined != 2 {
		t.Fatalf("reports rejoined = %d, want the grown group plus its overlap: %+v", st.ReportsRejoined, st)
	}
	if st.CoexistingEdgesReplaced == 0 {
		t.Fatalf("hub-and-path growth must replace the group's edges: %+v", st)
	}
	assertEngineMatchesBuild(t, eng, want, "hub-path-growth")
}

// TestCoexistingDuplicateReports covers the silently-dropped re-crawl bug:
// a re-delivered report URL is still deduped, but now surfaces in
// IngestStats — and a changed re-crawl is counted as a content conflict.
func TestCoexistingDuplicateReports(t *testing.T) {
	ds, reps := miniDataset(t)
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	before := digestOf(t, eng)

	// Identical re-crawl: dropped, counted, no conflict, no state change.
	same := *reps[0]
	st, err := eng.Ingest(Batch{Reports: []*reports.Report{&same}})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicateReports != 1 || st.DuplicateReportConflicts != 0 || st.NewReports != 0 {
		t.Fatalf("identical duplicate: %+v", st)
	}
	if st.CoexistingChanged() {
		t.Fatalf("identical duplicate dirtied RQ4: %+v", st)
	}

	// Re-crawl with changed content (an added package): dropped but flagged.
	changed := *reps[0]
	changed.Packages = append(append([]ecosys.Coord(nil), changed.Packages...),
		ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "added-later", Version: "1.0.0"})
	st, err = eng.Ingest(Batch{Reports: []*reports.Report{&changed}})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicateReports != 1 || st.DuplicateReportConflicts != 1 {
		t.Fatalf("changed duplicate: %+v", st)
	}
	if len(eng.Reports()) != len(reps) {
		t.Fatalf("duplicate grew the corpus: %d reports", len(eng.Reports()))
	}
	if diff := digestDiff(digestOf(t, eng), before); len(diff) > 0 {
		t.Fatalf("duplicate report changed digest sections %v", diff)
	}
}

// TestCoexistingCorpusWideRejoinStaysScoped: one arrival that re-joins every
// report of a non-trivial corpus still takes the scoped join — there is no
// whole-corpus path — and lands on the one-shot build's state, which a
// checkpoint restores exactly.
func TestCoexistingCorpusWideRejoinStaysScoped(t *testing.T) {
	ds, _ := miniDataset(t)
	rest, held := holdOut(t, ds, "lonely")
	const bulk = 72
	var reps []*reports.Report
	for i := 0; i < bulk; i++ {
		reps = append(reps, &reports.Report{
			URL:      fmt.Sprintf("https://bulk.example/r/%04d", i),
			Site:     "bulk.example",
			Packages: []ecosys.Coord{held.Coord},
		})
	}
	eng := NewEngine(DefaultConfig())
	warmStats, err := eng.Ingest(Batch{Entries: rest, Reports: reps, At: ds.CollectedAt})
	if err != nil {
		t.Fatal(err)
	}
	// A bulk in-order load is pure append whatever its size.
	if warmStats.CoexistingScoped || warmStats.ReportsRejoined != 0 {
		t.Fatalf("bulk in-order load left the append path: %+v", warmStats)
	}
	st, err := eng.Ingest(Batch{Entries: []*collect.Entry{held}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CoexistingScoped || st.ReportsRejoined != bulk {
		t.Fatalf("corpus-wide re-join = %+v, want scoped over all %d reports", st, bulk)
	}
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	assertEngineMatchesBuild(t, eng, want, "corpus-wide re-join")
	if diff := digestDiff(digestOf(t, roundTrip(t, eng)), digestOf(t, eng)); len(diff) != 0 {
		t.Fatalf("restored checkpoint differs from the live engine in %v", diff)
	}
}

// TestEngineRestoreRejoinsSameScope is the ISSUE 5 restore-parity contract:
// after a restore, ingesting a wanted package must re-join the same
// scope — same ReportsRejoined, same edge delta, same repairs — as the
// engine that never snapshotted, with no O(reports) first ingest.
func TestEngineRestoreRejoinsSameScope(t *testing.T) {
	ds, reps := miniDataset(t)
	rest, held := holdOut(t, ds, "alpha-three")

	live := NewEngine(DefaultConfig())
	if _, err := live.Ingest(Batch{Entries: rest, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	restored := roundTrip(t, live)
	if !reflect.DeepEqual(restored.posting, live.posting) {
		t.Fatal("restored posting lists differ")
	}
	if !reflect.DeepEqual(restored.coexOwner, live.coexOwner) {
		t.Fatal("restored pair ownership differs")
	}

	delta := Batch{Entries: []*collect.Entry{held}}
	liveStats, err := live.Ingest(delta)
	if err != nil {
		t.Fatal(err)
	}
	restoredStats, err := restored.Ingest(delta)
	if err != nil {
		t.Fatal(err)
	}
	if liveStats.ReportsRejoined != restoredStats.ReportsRejoined ||
		liveStats.CoexistingDelta != restoredStats.CoexistingDelta ||
		liveStats.CoexistingEdgesReplaced != restoredStats.CoexistingEdgesReplaced ||
		liveStats.CoexistingScoped != restoredStats.CoexistingScoped {
		t.Fatalf("re-join scope differs:\n live     %+v\n restored %+v", liveStats, restoredStats)
	}
	assertSameDigest(t, restored, live, "post-delta")
}

// roundTrip checkpoints e into a fresh content store and restores the
// manifest against it: the only way an engine's state leaves the process.
func roundTrip(t *testing.T, e *Engine) *Engine {
	t.Helper()
	store := openTestStore(t)
	e.AttachStore(store)
	var manifest bytes.Buffer
	if err := e.Snapshot(&manifest); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func digestOf(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	d, err := e.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// digestDiff returns the sorted names of the sections whose digests differ.
func digestDiff(a, b map[string]string) []string {
	var diff []string
	for name, sum := range a {
		if b[name] != sum {
			diff = append(diff, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			diff = append(diff, name)
		}
	}
	sort.Strings(diff)
	return diff
}

// assertSameDigest requires got and want to have equal state in every
// digest section, naming the sections that differ.
func assertSameDigest(t *testing.T, got, want *Engine, label string) {
	t.Helper()
	if diff := digestDiff(digestOf(t, got), digestOf(t, want)); len(diff) > 0 {
		t.Errorf("%s: digest sections differ: %v", label, diff)
	}
}

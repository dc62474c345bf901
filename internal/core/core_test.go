package core

import (
	"math"
	"testing"
	"time"

	"malgraph/internal/codegen"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/textsim"
	"malgraph/internal/xrand"
)

var t0 = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// miniDataset builds a hand-crafted dataset exercising all four edge types:
//   - camA: 3 packages from one code base (similar edges expected)
//   - camB: 2 packages from another code base
//   - dep: "pygrata" core + "loglib-modules" front importing it
//   - dup: one package reported by two sources
//   - loner: a singleton
func miniDataset(t testing.TB) (*collect.Result, []*reports.Report) {
	t.Helper()
	rng := xrand.New(42)
	var entries []*collect.Entry

	addEntry := func(a *ecosys.Artifact, srcs ...sources.ID) *collect.Entry {
		e := &collect.Entry{
			Coord:        a.Coord,
			Artifact:     a,
			Availability: collect.FromSource,
			Sources:      srcs,
			ReleasedAt:   t0,
			RemovedAt:    t0.AddDate(0, 0, 2),
		}
		entries = append(entries, e)
		return e
	}

	cbA := codegen.NewCodeBase("camA", ecosys.PyPI, codegen.PayloadBeaconC2, rng.Derive("a"))
	for i, name := range []string{"alpha-one", "alpha-two", "alpha-three"} {
		coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "1.0.0"}
		addEntry(cbA.Instantiate(coord, codegen.Options{Description: "a"}), sources.Backstabber)
		_ = i
	}
	cbB := codegen.NewCodeBase("camB", ecosys.PyPI, codegen.PayloadWalletReplace, rng.Derive("b"))
	for _, name := range []string{"beta-one", "beta-two"} {
		coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "2.0.0"}
		addEntry(cbB.Instantiate(coord, codegen.Options{Description: "b"}), sources.Maloss)
	}

	cbCore := codegen.NewCodeBase("dep-core", ecosys.PyPI, codegen.PayloadEnvExfil, rng.Derive("c"))
	coreCoord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pygrata", Version: "1.0.0"}
	addEntry(cbCore.Instantiate(coreCoord, codegen.Options{Description: "core"}), sources.Backstabber)

	cbFront := codegen.NewCodeBase("dep-front", ecosys.PyPI, codegen.PayloadDNSTunnel, rng.Derive("d"))
	frontCoord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "loglib-modules", Version: "1.0.0"}
	addEntry(cbFront.Instantiate(frontCoord, codegen.Options{
		Description: "front", Dependencies: []string{"pygrata"}, ImportDeps: []string{"pygrata"},
	}), sources.Backstabber)

	cbDup := codegen.NewCodeBase("dup", ecosys.NPM, codegen.PayloadCredentialTheft, rng.Derive("e"))
	dupCoord := ecosys.Coord{Ecosystem: ecosys.NPM, Name: "acookie", Version: "1.0.0"}
	addEntry(cbDup.Instantiate(dupCoord, codegen.Options{Description: "dup"}),
		sources.Backstabber, sources.Maloss, sources.Tianwen)

	cbLoner := codegen.NewCodeBase("loner", ecosys.RubyGems, codegen.PayloadBackdoorShell, rng.Derive("f"))
	lonerCoord := ecosys.Coord{Ecosystem: ecosys.RubyGems, Name: "lonely", Version: "0.1.0"}
	addEntry(cbLoner.Instantiate(lonerCoord, codegen.Options{Description: "l"}), sources.Snyk)

	res := collect.NewResult(t0)
	for _, e := range entries {
		res.Entries = append(res.Entries, e)
	}

	reportCorpus := []*reports.Report{
		{
			URL: "https://vendor.example/r/1", Site: "vendor.example",
			Category: reports.CategoryCommercial, Title: "alpha campaign",
			Packages: []ecosys.Coord{
				{Ecosystem: ecosys.PyPI, Name: "alpha-one", Version: "1.0.0"},
				{Ecosystem: ecosys.PyPI, Name: "alpha-two", Version: "1.0.0"},
			},
			PublishedAt: t0.AddDate(0, 0, 3),
		},
		{
			URL: "https://vendor.example/r/2", Site: "vendor.example",
			Category: reports.CategoryCommercial, Title: "alpha campaign update",
			Packages: []ecosys.Coord{
				{Ecosystem: ecosys.PyPI, Name: "alpha-two", Version: "1.0.0"},
				{Ecosystem: ecosys.PyPI, Name: "alpha-three", Version: "1.0.0"},
				{Ecosystem: ecosys.PyPI, Name: "ghost-package", Version: "9.9.9"}, // not in dataset
			},
			PublishedAt: t0.AddDate(0, 0, 5),
		},
	}
	return res, reportCorpus
}

func build(t *testing.T) *MalGraph {
	t.Helper()
	ds, reps := miniDataset(t)
	return reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}).Graph()
}

func TestBuildNodeCounts(t *testing.T) {
	mg := build(t)
	// 9 canonical packages + record nodes (3×1 + 2×1 + 1 + 1 + 3 + 1 = 11).
	if got := mg.G.NodeCount(); got != 9+11 {
		t.Fatalf("node count = %d", got)
	}
}

func TestDuplicatedEdges(t *testing.T) {
	mg := build(t)
	groups := mg.DuplicateGroups()
	if len(groups) != 1 {
		t.Fatalf("duplicate groups = %v", groups)
	}
	if len(groups[0]) != 3 { // acookie seen by 3 sources → 3 record nodes
		t.Fatalf("acookie group size = %d", len(groups[0]))
	}
	if got := mg.G.EdgeCount(graph.Duplicated); got != 3 { // C(3,2)
		t.Fatalf("duplicated edges = %d", got)
	}
}

func TestSimilarEdgesRecoverCampaigns(t *testing.T) {
	ds, reps := miniDataset(t)
	eng := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	mg := eng.Graph()
	subs := mg.PackageSubgraphs(graph.Similar, 2)
	if len(subs) != 2 {
		t.Fatalf("similar subgraphs = %d: %v", len(subs), subs)
	}
	if len(subs[0]) != 3 || len(subs[1]) != 2 {
		t.Fatalf("similar sizes = %d,%d", len(subs[0]), len(subs[1]))
	}
	// The alpha campaign members must be together.
	joined := subs[0][0] + subs[0][1] + subs[0][2]
	for _, name := range []string{"alpha-one", "alpha-two", "alpha-three"} {
		if !containsStr(joined, name) {
			t.Fatalf("alpha member %s missing from %v", name, subs[0])
		}
	}
	// Intra-cluster similarity matches the paper's ~99.9% claim: the mean
	// cosine of the members' item vectors to their normalised mean.
	for _, members := range subs {
		var cent []float64
		vecs := make([][]float64, 0, len(members))
		for _, id := range members {
			en, ok := mg.EntryByNodeID(id)
			if !ok {
				t.Fatalf("cluster member %s has no entry", id)
			}
			it, ok := eng.shards[en.Coord.Ecosystem].lsh.Item(id)
			if !ok {
				t.Fatalf("cluster member %s has no item", id)
			}
			vecs = append(vecs, it.Vector)
			for len(cent) < len(it.Vector) {
				cent = append(cent, 0)
			}
			for d, x := range it.Vector {
				cent[d] += x
			}
		}
		var norm float64
		for _, x := range cent {
			norm += x * x
		}
		var sim float64
		for _, v := range vecs {
			sim += textsim.Dot(v, cent) / math.Sqrt(norm)
		}
		if sim /= float64(len(vecs)); sim < 0.95 {
			t.Fatalf("cluster intra similarity %v too low", sim)
		}
	}
}

func TestDependencyEdges(t *testing.T) {
	mg := build(t)
	front := "PyPI/loglib-modules@1.0.0"
	core := "PyPI/pygrata@1.0.0"
	if _, ok := mg.G.EdgeAttrs(front, core, graph.Dependency); !ok {
		t.Fatal("front→core dependency edge missing")
	}
	if got := mg.G.InDegree(core, graph.Dependency); got != 1 {
		t.Fatalf("core in-degree = %d", got)
	}
	subs := mg.PackageSubgraphs(graph.Dependency, 2)
	if len(subs) != 1 || len(subs[0]) != 2 {
		t.Fatalf("dependency subgraphs = %v", subs)
	}
}

func TestCoexistingEdgesMergeReports(t *testing.T) {
	mg := build(t)
	subs := mg.PackageSubgraphs(graph.Coexisting, 2)
	// Both reports share alpha-two → one merged co-existing subgraph of 3.
	if len(subs) != 1 || len(subs[0]) != 3 {
		t.Fatalf("coexisting subgraphs = %v", subs)
	}
	// Ghost package must not exist as a node.
	if _, ok := mg.G.Node("PyPI/ghost-package@9.9.9"); ok {
		t.Fatal("report-only package must not be added to the graph")
	}
	// Report index populated.
	if got := len(mg.ReportsByPackage("PyPI/alpha-two@1.0.0")); got != 2 {
		t.Fatalf("alpha-two report count = %d", got)
	}
}

func TestConnectGroupLargeUsesSparseTopology(t *testing.T) {
	ds, reps := miniDataset(t)
	cfg := DefaultConfig()
	cfg.PairwiseLimit = 2 // force sparse mode for 3-member groups
	mg := reference(t, cfg, Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}).Graph()
	subs := mg.PackageSubgraphs(graph.Similar, 2)
	if len(subs) != 2 || len(subs[0]) != 3 {
		t.Fatalf("sparse topology changed components: %v", subs)
	}
	// Edge count must be below the full clique count for 3 members (3)
	// plus the 2-member group (1): sparse gives 2·(n-1)-1 = 3 for n=3.
	if got := mg.G.EdgeCount(graph.Similar); got > 4+1 {
		t.Fatalf("sparse edges = %d", got)
	}
}

func TestEntryByNodeID(t *testing.T) {
	mg := build(t)
	e, ok := mg.EntryByNodeID("NPM/acookie@1.0.0")
	if !ok || e.Coord.Name != "acookie" {
		t.Fatalf("EntryByNodeID failed: %v %v", e, ok)
	}
	if _, ok := mg.EntryByNodeID("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestRecordNodeID(t *testing.T) {
	coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x", Version: "1"}
	id := RecordNodeID(sources.Snyk, coord)
	if !IsRecordNode(id) {
		t.Fatal("record node not recognised")
	}
	if IsRecordNode(NodeID(coord)) {
		t.Fatal("canonical node misclassified")
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// DuplicateGroups returns groups of record nodes joined by duplicated edges
// (≥2 records, i.e. genuinely multi-source packages).
func (mg *MalGraph) DuplicateGroups() [][]string {
	comps := mg.G.ComponentsMin(2, graph.Duplicated)
	var out [][]string
	for _, comp := range comps {
		var recs []string
		for _, id := range comp {
			if IsRecordNode(id) {
				recs = append(recs, id)
			}
		}
		if len(recs) >= 2 {
			out = append(out, recs)
		}
	}
	return out
}

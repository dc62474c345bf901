// Package core builds MALGRAPH, the paper's primary contribution (§III): a
// knowledge graph over the collected malware corpus with four edge types.
//
//   - duplicated: the same package reported by different sources, matched on
//     name+version and confirmed by SHA-256 when both artifacts exist (§III-A).
//   - similar: packages sharing a code base, recovered by the embedding +
//     K-Means + silhouette pipeline (§III-B).
//   - dependency: dependent-hidden attacks, extracted from manifests and
//     Table II regex scans over source (§III-C).
//   - co-existing: packages named together by the same security report
//     (§III-D).
//
// Two node granularities coexist, exactly as in the paper's Fig. 3: a
// canonical node per package (carrying name, version, ecosystem, hash and
// availability) and a record node per (source, package) observation;
// duplicated edges connect record nodes, every other edge type connects
// canonical nodes.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/graph/cow"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/textsim"
)

// RecordNodePrefix marks per-source record node IDs.
const RecordNodePrefix = "rec:"

// Config parameterises graph construction.
type Config struct {
	Embed   textsim.EmbedConfig
	Cluster textsim.ClusterConfig
	Seed    uint64
	// PairwiseLimit bounds the clique size materialised for similar and
	// co-existing groups; larger groups get a hub-and-path topology with
	// identical connected components (the analyses consume components, not
	// edge counts).
	PairwiseLimit int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Embed:         textsim.DefaultEmbedConfig(),
		Cluster:       textsim.DefaultClusterConfig(),
		Seed:          1,
		PairwiseLimit: 30,
	}
}

// MalGraph is the built knowledge graph plus the indexes the analyses use.
type MalGraph struct {
	G       *graph.Graph
	Dataset *collect.Result
	Reports []*reports.Report

	// SimilarClusters are the surviving similarity clusters per §III-B,
	// keyed by ecosystem.
	SimilarClusters map[ecosys.Ecosystem][]textsim.Cluster

	// reportsByPkg indexes reports by canonical node ID (see
	// ReportsByPackage). Lists are replaced, never written in place, so
	// views share them.
	reportsByPkg cow.Map[[]*reports.Report]
	// subgraphs memoizes PackageSubgraphs on an immutable view (set by
	// Engine.View); nil on a live graph, which computes them directly.
	subgraphs *subgraphMemo
}

// subgraphMemo holds each edge type's package components of two or more
// members, computed at most once per view.
type subgraphMemo struct {
	once  [graph.Coexisting + 1]sync.Once
	comps [graph.Coexisting + 1][][]string
}

// Build constructs MALGRAPH from a collected dataset and a report corpus —
// the one-shot (single-batch) case of the streaming Engine, kept as the
// convenience entry point for batch pipelines and benchmarks.
func Build(dataset *collect.Result, reportCorpus []*reports.Report, cfg Config) (*MalGraph, error) {
	if dataset == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	eng := NewEngine(cfg)
	_, err := eng.Ingest(Batch{
		Entries:   dataset.Entries,
		PerSource: dataset.PerSource,
		Reports:   reportCorpus,
		At:        dataset.CollectedAt,
	})
	if err != nil {
		return nil, fmt.Errorf("core build: %w", err)
	}
	return eng.Graph(), nil
}

// NodeID returns the canonical node ID for a coordinate.
func NodeID(coord ecosys.Coord) string { return coord.Key() }

// RecordNodeID returns the record node ID for a (source, coordinate) pair.
func RecordNodeID(id sources.ID, coord ecosys.Coord) string {
	return RecordNodePrefix + strconv.Itoa(int(id)) + "|" + coord.Key()
}

// IsRecordNode reports whether a node ID names a per-source record.
func IsRecordNode(nodeID string) bool { return strings.HasPrefix(nodeID, RecordNodePrefix) }

// connectGroup joins members into one component: full clique up to limit,
// hub-and-path beyond (identical components, linear edge count).
func (mg *MalGraph) connectGroup(members []string, t graph.EdgeType, attrs graph.Attrs, limit int) error {
	return pairwise(members, limit, func(a, b string) error {
		return mg.G.AddEdge(a, b, t, attrs)
	})
}

// pairwise emits the pair set connectGroup materialises for a member group —
// full clique up to limit, hub-and-path beyond. It is the single definition
// of the group topology: the co-existing join index replays it per report to
// decide which pairs a report covers (and therefore may own), so the emitted
// set must stay bit-identical to the edges connectGroup inserts. Pairs may be
// emitted more than once (the hub-and-path walk revisits the hub's first
// spoke); emit must be idempotent.
func pairwise(members []string, limit int, emit func(a, b string) error) error {
	if len(members) < 2 {
		return nil
	}
	if len(members) <= limit {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if err := emit(members[i], members[j]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	hub := members[0]
	for i := 1; i < len(members); i++ {
		if err := emit(hub, members[i]); err != nil {
			return err
		}
		if err := emit(members[i-1], members[i]); err != nil {
			return err
		}
	}
	return nil
}

func uniqueStrings(in []string) []string {
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}

// PackageSubgraphs returns the connected components over one edge type,
// restricted to canonical package nodes, with at least minSize (≥1)
// members, largest first (ties by smallest member). On a view the
// components of two or more members are computed once per edge type and
// shared: callers must not modify the returned member slices.
func (mg *MalGraph) PackageSubgraphs(t graph.EdgeType, minSize int) [][]string {
	memo := mg.subgraphs
	if memo == nil || minSize < 2 || t < graph.Duplicated || t > graph.Coexisting {
		return packageComponents(mg.G, t, minSize)
	}
	memo.once[t].Do(func() { memo.comps[t] = packageComponents(mg.G, t, 2) })
	// Filtering keeps the size-descending order.
	var out [][]string
	for _, pkgs := range memo.comps[t] {
		if len(pkgs) >= minSize {
			out = append(out, pkgs)
		}
	}
	return out
}

func packageComponents(g *graph.Graph, t graph.EdgeType, minSize int) [][]string {
	minSize = max(minSize, 1)
	comps := g.ComponentsMin(1, t)
	var out [][]string
	for _, comp := range comps {
		var pkgs []string
		for _, id := range comp {
			if !IsRecordNode(id) {
				pkgs = append(pkgs, id)
			}
		}
		if len(pkgs) >= minSize {
			out = append(out, pkgs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
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

// EntryByNodeID resolves a canonical node ID back to its dataset entry (a
// canonical node ID is its coordinate key).
func (mg *MalGraph) EntryByNodeID(nodeID string) (*collect.Entry, bool) {
	return mg.Dataset.EntryByKey(nodeID)
}

// ReportsByPackage returns the reports naming the canonical node ID, in
// URL order. The slice is shared and must not be modified.
func (mg *MalGraph) ReportsByPackage(nodeID string) []*reports.Report {
	lst, _ := mg.reportsByPkg.Get(nodeID)
	return lst
}

package core

// Engine.Digest, which hashes each state section as JSON (the items, read
// from each shard's LSH index in ID order, in the shape the monolithic v4
// snapshot gave them), and restoreFromParts, the tail of the restore
// (snapshot5.go) that rebuilds an engine's caches and indexes from its
// decoded sections. The items carry their embeddings, so a restore
// re-embeds nothing. Everything else it derives, each part cheaper to
// rebuild than to persist: the LSH partitions as the items are added back
// into each shard's index, the reverse import index from the artifacts and
// the per-coordinate report index from the reports. The similar clusters
// and the co-existing pair owners need no rebuild: they are the graph's
// similar edges and the "report" attrs of its co-existing edges.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/textsim"
)

// snapshotItem is a clustering item as Digest hashes it. SimHash
// fingerprints are full 64-bit values, so Hash is hex — JSON numbers lose
// integer precision past 2^53.
type snapshotItem struct {
	ID     string    `json:"id"`
	Vector []float64 `json:"vector"`
	Hash   string    `json:"hash"`
}

// restoreParts is the persisted state the restore decodes, apart from the
// dataset and the graph. restoreFromParts derives every index and cache
// the engine keeps beside them.
type restoreParts struct {
	Config  Config
	Reports []*reports.Report // sorted by URL
	Items   map[string][]textsim.Item
	// AppliedSeq is the last durable ingest sequence applied before the
	// checkpoint: WAL records with Seq ≤ AppliedSeq are already in it and
	// are skipped on replay. FeedPos is the feed cursor at the same instant
	// — journal truncation at a checkpoint discards the feed records that
	// would otherwise re-derive it.
	AppliedSeq uint64
	FeedPos    int
}

// Digest returns a hex SHA-256 per section of the engine's state: config,
// stamps (AppliedSeq, FeedPos), dataset, graph, reports, items, imports
// and posting. Each section hashes its state as JSON (imports as each
// ecosystem's reverse import index, every list sorted: its order is
// insertion order, not state; posting as the per-coordinate report index,
// each coordinate's URLs in order), except graph, which hashes the graph
// as a set (graph.Graph.Canonical): edge insertion order differs between
// batch partitions of one corpus and is not state. The graph section
// covers the similar clusters, every edge labelled with its partition key
// and silhouette, and the co-existing pair owners, every co-existing edge's
// "report" attr. Digests are equal exactly when the states are, and a
// mismatch names its section. It needs no store.
func (e *Engine) Digest() (map[string]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	items := make(map[string][]snapshotItem, len(e.shards))
	imports := make(map[string]map[string][]string, len(e.shards))
	for eco, sh := range e.shards {
		if len(sh.importers) > 0 {
			byName := make(map[string][]string, len(sh.importers))
			for name, fronts := range sh.importers {
				byName[name] = slices.Sorted(slices.Values(fronts))
			}
			imports[eco.String()] = byName
		}
		if sh.lsh.Len() > 0 {
			out := make([]snapshotItem, 0, sh.lsh.Len())
			for _, it := range sh.lsh.Items() {
				out = append(out, snapshotItem{
					ID:     it.ID,
					Vector: it.Vector,
					Hash:   strconv.FormatUint(it.Hash, 16),
				})
			}
			items[eco.String()] = out
		}
	}
	posting := make(map[string][]string, e.mg.reportsByPkg.Len())
	for _, id := range e.mg.reportsByPkg.Keys() {
		reps := e.mg.ReportsByPackage(id)
		urls := make([]string, len(reps))
		for i, rep := range reps {
			urls[i] = rep.URL
		}
		posting[id] = urls
	}
	encode := func(v any) func(io.Writer) error {
		return func(w io.Writer) error { return json.NewEncoder(w).Encode(v) }
	}
	sections := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"config", encode(e.cfg)},
		{"stamps", encode(struct {
			AppliedSeq uint64 `json:"appliedSeq,omitempty"`
			FeedPos    int    `json:"feedPos,omitempty"`
		}{e.appliedSeq, e.feedPos})},
		{sectionDataset, func(w io.Writer) error { return e.mg.Dataset.WriteJSON(w, collect.ExportFull) }},
		{sectionGraph, encode(e.mg.G.Canonical())},
		{sectionReports, encode(e.mg.Reports)},
		{sectionItems, encode(items)},
		{"imports", encode(imports)},
		{"posting", encode(posting)},
	}
	out := make(map[string]string, len(sections))
	for _, s := range sections {
		h := sha256.New()
		if err := s.write(h); err != nil {
			return nil, fmt.Errorf("digest %s: %w", s.name, err)
		}
		out[s.name] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// restoreFromParts rebuilds an engine from its decoded dataset, graph and
// the other sections in snap. All caches and indexes are rebuilt: the next
// batch costs the same as without a restart.
func restoreFromParts(ds *collect.Result, g *graph.Graph, snap *restoreParts) (*Engine, error) {
	e := NewEngine(snap.Config)
	e.appliedSeq = snap.AppliedSeq
	e.feedPos = snap.FeedPos
	e.mg.G = g
	e.mg.Dataset = ds
	e.mg.Reports = snap.Reports

	// Materialize the item-bearing shards before the fan-out, as
	// applyShardsLocked does, in name order so an unknown ecosystem fails
	// the same way every time.
	ecoByName := make(map[string]ecosys.Ecosystem, len(ecosys.All()))
	for _, eco := range ecosys.All() {
		ecoByName[eco.String()] = eco
	}
	itemEcos := sortedKeys(snap.Items)
	itemShards := make([]*ecoShard, len(itemEcos))
	for i, name := range itemEcos {
		eco, ok := ecoByName[name]
		if !ok {
			return nil, fmt.Errorf("restore: unknown ecosystem %q in items", name)
		}
		itemShards[i] = e.shardLocked(eco)
	}
	// Each shard's LSH rebuild writes only that shard. Partition membership
	// and canonical keys are content-derived, so adding the decoded items
	// in any order reproduces the snapshotted engine's index exactly.
	parallel.ForEach(len(itemShards), func(i int) {
		for _, it := range snap.Items[itemEcos[i]] {
			itemShards[i].lsh.Add(it.ID, it.Hash, it.Vector)
		}
	})
	// Re-scan every artifact's imports.
	deps := make([][]string, len(ds.Entries))
	err := parallel.ForEachErr(len(ds.Entries), func(i int) (err error) {
		if en := ds.Entries[i]; en.Artifact != nil {
			if deps[i], err = e.scanner.Dependencies(en.Artifact); err != nil {
				return fmt.Errorf("restore: dep scan %s: %w", en.Coord, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Rebuild the corpus dictionaries and the import indexes in key order —
	// node-ID order, so future edge insertions stay deterministic.
	for i, en := range ds.Entries {
		sh := e.shardLocked(en.Coord.Ecosystem)
		name := en.Coord.Name
		id := NodeID(en.Coord)
		sh.byName[name] = append(sh.byName[name], id)
		if en.Artifact == nil {
			continue
		}
		for _, dep := range deps[i] {
			sh.importers[dep] = append(sh.importers[dep], id)
		}
	}
	// Rebuild the per-coordinate report index, every named coordinate
	// included, so a restored engine's next wanted-package ingest re-joins
	// exactly the scope the uninterrupted engine would. The appends keep URL
	// order, and in place is safe: no view of this engine exists yet.
	for _, rep := range e.mg.Reports {
		for _, coord := range rep.Packages {
			// A report naming a coordinate twice is already its list's last.
			lst := e.mg.reportsByPkg.Slot(NodeID(coord))
			if n := len(*lst); n == 0 || (*lst)[n-1] != rep {
				*lst = append(*lst, rep)
			}
		}
	}
	return e, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

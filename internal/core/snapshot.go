package core

// Engine.Digest, which hashes each state section in the JSON shape the
// monolithic v4 snapshot gave it, and restoreFromParts, the tail of the v5
// restore (snapshot5.go) that rebuilds an engine's caches and indexes from
// its decoded sections. The expensive per-artifact products and the
// cluster state ride along with the graph, so a restore re-embeds,
// re-scans and re-clusters nothing.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
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

// restoreParts is an engine's state as the restore decodes it, apart from
// the dataset and the graph.
type restoreParts struct {
	Config  Config
	Reports []*reports.Report
	// Partitions carries each ecosystem's clusters keyed by LSH partition
	// (canonical key = smallest member node ID); the flat SimilarClusters
	// lists are re-derived by flattening in key order. The LSH index itself
	// is not persisted: partition membership is content-derived, so it is
	// rebuilt exactly from Items.
	Partitions map[string]map[string][]textsim.Cluster
	Items      map[string][]textsim.Item
	Imports    map[string][]string
	// Posting and PairOwners are the co-existing join index: coordinate
	// key → URL-sorted report posting list (including coordinates not yet
	// observed — exactly the state a wanted-package arrival re-joins from)
	// and pair key → owning report URL (the URL-smallest cover whose attrs
	// the edge carries). Ownership cannot be reconstructed without replaying
	// the whole URL-ordered join, so it is persisted instead.
	Posting    map[string][]string
	PairOwners map[string]string
	// AppliedSeq is the last durable ingest sequence applied before the
	// checkpoint: WAL records with Seq ≤ AppliedSeq are already in it and
	// are skipped on replay. FeedPos is the feed cursor at the same instant
	// — journal truncation at a checkpoint discards the feed records that
	// would otherwise re-derive it.
	AppliedSeq uint64
	FeedPos    int
}

// Digest returns a hex SHA-256 per section of the engine's state: config,
// stamps (AppliedSeq, FeedPos), dataset, graph, reports, items, partitions,
// imports, posting and pairOwners. Each section hashes the JSON the v4
// format carried for it, except graph, which hashes the graph as a set
// (graph.Graph.Canonical): edge insertion order differs between batch partitions
// of one corpus and is not state. Digests are equal exactly when the states
// are, and a mismatch names its section. It needs no store.
func (e *Engine) Digest() (map[string]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	partitions := make(map[string]map[string][]textsim.Cluster, len(e.shards))
	items := make(map[string][]snapshotItem, len(e.shards))
	imports := make(map[string][]string)
	// The v4 layout predates the shard split: the import caches merge into
	// one flat map, and a shard with items or clusters contributes its
	// (possibly empty) partition map and item slice under its ecosystem.
	for eco, sh := range e.shards {
		if len(sh.items) > 0 || len(sh.clustersByPart) > 0 {
			partitions[eco.String()] = sh.clustersByPart
			out := make([]snapshotItem, 0, len(sh.items))
			for _, it := range sh.items {
				out = append(out, snapshotItem{
					ID:     it.ID,
					Vector: it.Vector,
					Hash:   strconv.FormatUint(it.Hash, 16),
				})
			}
			items[eco.String()] = out
		}
		for front, deps := range sh.importsOf {
			//malgraph:nondeterm-ok shard import maps are disjoint (node IDs embed the ecosystem), so merge order cannot collide
			imports[front] = deps
		}
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
		{sectionPartitions, encode(partitions)},
		{sectionImports, encode(imports)},
		{"posting", encode(e.posting)},
		{sectionPairOwners, encode(e.coexOwner)},
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
	sort.Slice(e.mg.Reports, func(i, j int) bool { return e.mg.Reports[i].URL < e.mg.Reports[j].URL })

	ecoByName := make(map[string]ecosys.Ecosystem, len(ecosys.All()))
	for _, eco := range ecosys.All() {
		ecoByName[eco.String()] = eco
	}
	for name, items := range snap.Items {
		eco, ok := ecoByName[name]
		if !ok {
			return nil, fmt.Errorf("restore: unknown ecosystem %q in items", name)
		}
		sh := e.shardLocked(eco)
		// Headroom keeps the first post-restore inserts from recopying the
		// whole ID-sorted slice (insertItem shifts in place within capacity).
		restored := append(make([]textsim.Item, 0, len(items)+len(items)/8+16), items...)
		sort.Slice(restored, func(i, j int) bool { return restored[i].ID < restored[j].ID })
		sh.items = restored
		// Rebuild the LSH partition index from the cached fingerprints —
		// partition membership and canonical keys are content-derived, so
		// this reproduces the snapshotted engine's index exactly.
		idx := textsim.NewLSHIndex(e.cfg.Cluster)
		for _, it := range restored {
			idx.Add(it.ID, it.Hash, it.Vector)
		}
		// Rebuild-time retirements predate the snapshot's partition cache,
		// which is already keyed canonically — drain them so the first
		// post-restore ingest doesn't pay an O(corpus) stale-key sweep the
		// uninterrupted engine never sees.
		idx.DrainRetired()
		sh.lsh = idx
	}
	for name, parts := range snap.Partitions {
		eco, ok := ecoByName[name]
		if !ok {
			return nil, fmt.Errorf("restore: unknown ecosystem %q in partitions", name)
		}
		sh := e.shardLocked(eco)
		for key := range parts {
			if sh.lsh == nil || sh.lsh.Members(key) == nil {
				return nil, fmt.Errorf("restore: %s partition %q is not canonical in the rebuilt LSH index", name, key)
			}
		}
		sh.clustersByPart = parts
		//malgraph:nondeterm-ok eco is a bijective rename of the range key, so this writes each ecosystem exactly once
		e.mg.SimilarClusters[eco] = sh.flat.flatten(parts)
	}

	// Rebuild the in-memory indexes from the merged dataset and caches.
	for _, en := range ds.Entries {
		sh := e.shardLocked(en.Coord.Ecosystem)
		name := en.Coord.Name
		id := NodeID(en.Coord)
		sh.byName[name] = append(sh.byName[name], id)
		sh.corpus[name] = true
	}
	// The imports section is one flat map; split it back into the
	// per-ecosystem shards (node IDs resolve their ecosystem via the dataset)
	// and rebuild each reverse import index in sorted front order so future
	// edge insertions stay deterministic.
	fronts := make([]string, 0, len(snap.Imports))
	for front := range snap.Imports {
		fronts = append(fronts, front)
	}
	sort.Strings(fronts)
	for _, front := range fronts {
		en, ok := e.mg.EntryByNodeID(front)
		if !ok {
			return nil, fmt.Errorf("restore: import cache references unknown node %s", front)
		}
		sh := e.shardLocked(en.Coord.Ecosystem)
		sh.importsOf[front] = snap.Imports[front]
		for _, dep := range snap.Imports[front] {
			sh.importers[dep] = append(sh.importers[dep], front)
		}
	}
	// Rebuild the per-package report index from the URL-sorted corpus (the
	// appends preserve global URL order) and restore the join index. The
	// posting lists and pair ownership come from the snapshot verbatim — a
	// restored engine's next wanted-package ingest re-joins exactly the
	// scope the uninterrupted engine would, without an O(reports) pass.
	for _, rep := range e.mg.Reports {
		e.reportByURL[rep.URL] = rep
		seen := make(map[string]bool, len(rep.Packages))
		for _, coord := range rep.Packages {
			id := NodeID(coord)
			if seen[id] {
				continue
			}
			seen[id] = true
			if e.mg.G.HasNode(id) {
				// In-place append is safe here: no view of the engine
				// being restored exists yet.
				e.mg.reportsByPkg.Set(id, append(e.mg.ReportsByPackage(id), rep))
			}
		}
	}
	if snap.Posting != nil {
		e.posting = snap.Posting
	}
	if snap.PairOwners != nil {
		e.coexOwner = snap.PairOwners
	}
	return e, nil
}

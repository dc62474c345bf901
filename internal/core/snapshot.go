package core

// Engine snapshot/restore wires the existing JSON persistence (graph,
// dataset) into the streaming architecture: a serve-mode process can
// checkpoint its engine and warm-restart without re-embedding, re-scanning
// or re-clustering anything — the expensive per-artifact products and the
// cluster state ride along with the graph.

import (
	"bytes"
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

// snapshotVersion guards the wire format. Version 2 replaced the flat
// per-ecosystem cluster lists with per-LSH-partition cluster maps, so a
// warm-restarted engine re-clusters exactly the partitions the unrestored
// one would have. Version 3 added the co-existing join index (per-coordinate
// report posting lists and per-pair edge ownership), so a restored engine's
// first wanted-package ingest is report-scoped instead of an O(reports)
// re-derivation. Version 4 added the durable ingest sequence stamp
// (AppliedSeq) that lets WAL recovery skip journal records the checkpoint
// already contains; version 3 snapshots still restore (stamp 0 replays the
// whole journal, which the idempotent ingest absorbs).
const snapshotVersion = 4

// minSnapshotVersion is the oldest format RestoreEngine still accepts.
const minSnapshotVersion = 3

// snapshotItem carries a cached clustering item. SimHash fingerprints are
// full 64-bit values, so Hash travels as hex — JSON numbers lose integer
// precision past 2^53.
type snapshotItem struct {
	ID     string    `json:"id"`
	Vector []float64 `json:"vector"`
	Hash   string    `json:"hash"`
}

type engineSnapshot struct {
	Version int               `json:"version"`
	Config  Config            `json:"config"`
	Dataset json.RawMessage   `json:"dataset"` // collect full export
	Reports []*reports.Report `json:"reports"`
	Graph   json.RawMessage   `json:"graph"` // graph.WriteJSON output
	// Partitions carries each ecosystem's clusters keyed by LSH partition
	// (canonical key = smallest member node ID); the flat SimilarClusters
	// lists are re-derived by flattening in key order. The LSH index itself
	// is not serialised: partition membership is content-derived, so it is
	// rebuilt exactly from Items on restore.
	Partitions map[string]map[string][]textsim.Cluster `json:"partitions"`
	Items      map[string][]snapshotItem               `json:"items"`
	Imports    map[string][]string                     `json:"imports"`
	// Posting and PairOwners persist the co-existing join index: coordinate
	// key → URL-sorted report posting list (including coordinates not yet
	// observed — exactly the state a wanted-package arrival re-joins from)
	// and pair key → owning report URL (the URL-smallest cover whose attrs
	// the edge carries). Ownership cannot be reconstructed without replaying
	// the whole URL-ordered join, so it rides along instead.
	Posting    map[string][]string `json:"posting"`
	PairOwners map[string]string   `json:"pairOwners"`
	// AppliedSeq is the last durable ingest sequence applied before the
	// snapshot was taken: WAL records with Seq ≤ AppliedSeq are already in
	// this snapshot and must be skipped on replay. FeedPos is the feed
	// cursor at the same instant — journal truncation at a checkpoint
	// discards the feed records that would otherwise re-derive it.
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
	FeedPos    int    `json:"feedPos,omitempty"`
}

// Snapshot serialises the engine's full state: merged dataset (with
// artifacts), report corpus, graph, per-ecosystem cluster state and the
// cached per-artifact products. With a content store attached (AttachStore)
// the call writes a segmented v5 manifest instead — the delta chunks go to
// the store, the manifest to w — at O(changes since the last checkpoint);
// without one it emits the monolithic v4 stream unchanged.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		return e.snapshotSegmentedLocked(w)
	}
	var ds, g bytes.Buffer
	if err := e.mg.Dataset.WriteJSON(&ds, collect.ExportFull); err != nil {
		return fmt.Errorf("snapshot dataset: %w", err)
	}
	if err := e.mg.G.WriteJSON(&g); err != nil {
		return fmt.Errorf("snapshot graph: %w", err)
	}
	snap := engineSnapshot{
		Version:    snapshotVersion,
		AppliedSeq: e.appliedSeq,
		FeedPos:    e.feedPos,
		Config:     e.cfg,
		Dataset:    ds.Bytes(),
		Reports:    e.mg.Reports,
		Graph:      g.Bytes(),
		Partitions: make(map[string]map[string][]textsim.Cluster, len(e.shards)),
		Items:      make(map[string][]snapshotItem, len(e.shards)),
		Imports:    make(map[string][]string),
		Posting:    e.posting,
		PairOwners: e.coexOwner,
	}
	// The wire format predates the shard split and stays unchanged: the
	// per-shard import caches merge into one flat map (node IDs are globally
	// unique), and each shard contributes its partition cache and item slice
	// under its ecosystem name. Shards with items but no clusters still get
	// their (possibly empty) partition map carried, so a restored engine's
	// partition cache mirrors the live one exactly.
	for eco, sh := range e.shards {
		if len(sh.items) > 0 || len(sh.clustersByPart) > 0 {
			snap.Partitions[eco.String()] = sh.clustersByPart
			out := make([]snapshotItem, 0, len(sh.items))
			for _, it := range sh.items {
				out = append(out, snapshotItem{
					ID:     it.ID,
					Vector: it.Vector,
					Hash:   strconv.FormatUint(it.Hash, 16),
				})
			}
			snap.Items[eco.String()] = out
		}
		for front, deps := range sh.importsOf {
			//malgraph:nondeterm-ok shard import maps are disjoint (node IDs embed the ecosystem), so merge order cannot collide
			snap.Imports[front] = deps
		}
	}
	return json.NewEncoder(w).Encode(&snap)
}

// RestoreEngine reconstructs an engine from a Snapshot stream. The restored
// engine continues ingesting exactly where the snapshotted one stopped: all
// caches and indexes are rebuilt, so the next batch costs the same as it
// would have without the restart.
func RestoreEngine(r io.Reader) (*Engine, error) {
	var snap engineSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("restore decode: %w", err)
	}
	if snap.Version == snapshotVersionSegmented {
		return nil, fmt.Errorf("restore: snapshot version %d is a segmented manifest; restore it with its content store (RestoreEngineWithStore / -store)",
			snap.Version)
	}
	if snap.Version < minSnapshotVersion {
		return nil, fmt.Errorf("restore: snapshot version %d predates the minimum supported version %d",
			snap.Version, minSnapshotVersion)
	}
	if snap.Version > snapshotVersion {
		return nil, fmt.Errorf("restore: snapshot version %d, want %d..%d",
			snap.Version, minSnapshotVersion, snapshotVersion)
	}
	ds, err := collect.ReadJSON(bytes.NewReader(snap.Dataset))
	if err != nil {
		return nil, fmt.Errorf("restore dataset: %w", err)
	}
	g, err := graph.ReadJSON(bytes.NewReader(snap.Graph))
	if err != nil {
		return nil, fmt.Errorf("restore graph: %w", err)
	}
	return restoreFromParts(ds, g, &snap)
}

// restoreFromParts rebuilds an engine from decoded snapshot components —
// the shared tail of the monolithic (v3/v4) and segmented (v5) restore
// paths. snap supplies everything except the dataset and graph, which the
// two formats decode differently.
func restoreFromParts(ds *collect.Result, g *graph.Graph, snap *engineSnapshot) (*Engine, error) {
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
		restored := make([]textsim.Item, 0, len(items)+len(items)/8+16)
		for _, it := range items {
			hash, err := strconv.ParseUint(it.Hash, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("restore: bad fingerprint for %s: %w", it.ID, err)
			}
			restored = append(restored, textsim.Item{ID: it.ID, Vector: it.Vector, Hash: hash})
		}
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
		e.mg.SimilarClusters[eco] = flattenClusters(parts)
	}

	// Rebuild the in-memory indexes from the merged dataset and caches.
	for _, en := range ds.Entries {
		sh := e.shardLocked(en.Coord.Ecosystem)
		name := en.Coord.Name
		id := NodeID(en.Coord)
		sh.byName[name] = append(sh.byName[name], id)
		sh.corpus[name] = true
	}
	// The wire format carries one flat import map; split it back into the
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
			if _, ok := e.mg.G.Node(id); ok {
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

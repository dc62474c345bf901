package core

// Engine.Digest, the state oracle, which hashes each state section as JSON
// (the items, read from each shard's LSH index in ID order, in the shape
// the monolithic v4 snapshot gave them). A checkpoint persists only the
// dataset and reports sections; a restore (snapshot5.go) replays them as
// one Ingest, so every other section of a restored engine is derived by the
// running code, and the restore suites compare all of them against the live
// engine through this digest.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"malgraph/internal/collect"
)

// snapshotItem is a clustering item as Digest hashes it. SimHash
// fingerprints are full 64-bit values, so Hash is hex — JSON numbers lose
// integer precision past 2^53.
type snapshotItem struct {
	ID     string    `json:"id"`
	Vector []float64 `json:"vector"`
	Hash   string    `json:"hash"`
}

// Digest returns a hex SHA-256 per section of the engine's state: config,
// dataset, graph, reports, items, imports and posting — what the state is,
// not how it arrived (the caller's Stamps). Each section hashes its state
// as JSON (imports as each ecosystem's reverse import index, every list
// sorted: its order is insertion order, not state; posting as the
// per-coordinate report index, each coordinate's URLs in order), except
// graph, which hashes the graph as a set (graph.Graph.Canonical): edge
// insertion order differs between batch partitions of one corpus and is
// not state. The graph section
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
		{sectionDataset, func(w io.Writer) error { return e.mg.Dataset.WriteJSON(w, collect.ExportFull) }},
		{"graph", encode(e.mg.G.Canonical())},
		{sectionReports, encode(e.mg.Reports)},
		{"items", encode(items)},
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

package core

// The dependency relation (§III-C): a package links to the corpus packages
// its artifact imports. Each shard keeps a corpus dictionary (name →
// canonical nodes) plus a reverse import index (imported name → scanned
// fronts), so a new package links both directions — to the corpus members
// it imports and from the previously ingested fronts that import *it* —
// without rescanning anything.

import (
	"fmt"

	"malgraph/internal/graph"
	"malgraph/internal/parallel"
)

// planDependencyLocked runs one shard's §III-C leg: grow the corpus
// dictionary, scan the new artifacts and link forward, then link backward.
// It mutates only the shard's own indexes and returns the edges for the
// serial commit.
func (e *Engine) planDependencyLocked(sh *ecoShard, changes, newArts []entryChange) ([]plannedEdge, error) {
	var edges []plannedEdge
	// Dependency 1: grow the corpus dictionary with every new entry
	// (missing packages are legitimate dependency targets — names survive
	// takedown).
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		name := ch.entry.Coord.Name
		sh.byName[name] = append(sh.byName[name], NodeID(ch.entry.Coord))
	}
	// Dependency 2: scan new artifacts (parallel, order-preserving) and
	// link forward.
	type scanResult struct {
		deps []string
		err  error
	}
	scans := parallel.Map(len(newArts), func(i int) scanResult {
		deps, err := e.scanner.Dependencies(newArts[i].entry.Artifact)
		return scanResult{deps: deps, err: err}
	})
	for i, ch := range newArts {
		if scans[i].err != nil {
			return nil, fmt.Errorf("dep scan %s: %w", ch.entry.Coord, scans[i].err)
		}
		front := NodeID(ch.entry.Coord)
		for _, dep := range scans[i].deps {
			sh.importers[dep] = append(sh.importers[dep], front)
			for _, target := range sh.byName[dep] {
				if target == front {
					continue
				}
				edges = append(edges, plannedEdge{front, target, graph.Attrs{"dep": dep}})
			}
		}
	}
	// Dependency 3: link backward — earlier fronts waiting for a new name.
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		name := ch.entry.Coord.Name
		target := NodeID(ch.entry.Coord)
		for _, front := range sh.importers[name] {
			if front == target {
				continue
			}
			edges = append(edges, plannedEdge{front, target, graph.Attrs{"dep": name}})
		}
	}
	return edges, nil
}

package core

// The duplicated relation (§III-A): every source that reports a package
// gets a record node of its own, and the records of one entry form a
// clique, appended as sources accumulate. A late artifact stamps its hash
// on the entry's records and re-derives the clique.

import (
	"sort"
	"strconv"
	"strings"

	"malgraph/internal/collect"
	"malgraph/internal/graph"
)

// applyNodes inserts or refreshes canonical and record nodes and appends the
// duplicated-edge cliques (§III-A).
func (e *Engine) applyNodes(changes []entryChange, st *IngestStats) error {
	before := e.mg.G.EdgeCount(graph.Duplicated)
	for _, ch := range changes {
		en := ch.entry
		id := NodeID(en.Coord)
		attrs := canonicalAttrs(en)
		if ch.isNew {
			if err := e.mg.G.AddNode(id, attrs); err != nil {
				return err
			}
		} else {
			// One pass in key order over the attributes whose value changed,
			// so an unchanged attribute costs no node copy.
			cur, _ := e.mg.G.Node(id)
			keys := make([]string, 0, len(attrs))
			for k, v := range attrs {
				if old, ok := cur.Attrs[k]; !ok || old != v {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := e.mg.G.SetAttr(id, k, attrs[k]); err != nil {
					return err
				}
			}
		}
		for _, s := range ch.newSources {
			recAttrs := graph.Attrs{
				"kind":      "record",
				"name":      en.Coord.Name,
				"version":   en.Coord.Version,
				"ecosystem": en.Coord.Ecosystem.String(),
				"source":    strconv.Itoa(int(s)),
			}
			if en.Artifact != nil {
				recAttrs["hash"] = en.Artifact.Hash()
			}
			if err := e.mg.G.AddNode(RecordNodeID(s, en.Coord), recAttrs); err != nil {
				return err
			}
		}
		recIDs := make([]string, len(en.Sources))
		for i, s := range en.Sources {
			recIDs[i] = RecordNodeID(s, en.Coord)
		}
		if ch.newArtifact && !ch.isNew {
			// Late-arriving artifact: stamp the hash on pre-existing records
			// and drop the entry's duplicated edges so the clique below
			// re-derives them with the hash-confirmed match attr — what a
			// one-shot build of the merged corpus would have produced.
			// Duplicated edges join only the records of one entry, so the
			// edges incident to its records are exactly its clique.
			for _, id := range recIDs {
				if err := e.mg.G.SetAttr(id, "hash", en.Artifact.Hash()); err != nil {
					return err
				}
			}
			e.mg.G.RemoveEdgesIncident(graph.Duplicated, recIDs)
		}
		if len(recIDs) >= 2 {
			dupAttrs := graph.Attrs{"match": "name+version"}
			if en.Artifact != nil {
				dupAttrs["match"] = "name+version+hash"
			}
			for i := 0; i < len(recIDs); i++ {
				for j := i + 1; j < len(recIDs); j++ {
					if err := e.mg.G.AddEdge(recIDs[i], recIDs[j], graph.Duplicated, dupAttrs); err != nil {
						return err
					}
				}
			}
		}
	}
	st.DuplicatedDelta = e.mg.G.EdgeCount(graph.Duplicated) - before
	return nil
}

func canonicalAttrs(en *collect.Entry) graph.Attrs {
	attrs := graph.Attrs{
		"kind":      "package",
		"name":      en.Coord.Name,
		"version":   en.Coord.Version,
		"ecosystem": en.Coord.Ecosystem.String(),
		"avail":     en.Availability.String(),
		"occ":       strconv.Itoa(en.OccurrenceCount()),
	}
	if en.Artifact != nil {
		attrs["hash"] = en.Artifact.Hash()
	}
	ids := make([]string, 0, len(en.Sources))
	for _, s := range en.Sources {
		ids = append(ids, strconv.Itoa(int(s)))
	}
	attrs["sources"] = strings.Join(ids, ",")
	return attrs
}

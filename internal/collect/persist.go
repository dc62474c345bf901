package collect

// Dataset persistence mirrors the paper's §IV-A transparency model: a
// *public* export carries names, versions, sources and availability flags
// only (real malware cannot be published "because of ethical considerations,
// i.e., script kiddies"), while a *full* export additionally embeds the
// artifacts — the paper's request-access private repository.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
)

// ExportMode selects how much of the dataset is serialised.
type ExportMode int

const (
	// ExportPublic omits artifacts: names/versions/metadata only.
	ExportPublic ExportMode = iota + 1
	// ExportFull embeds artifacts (the private, request-access dataset).
	ExportFull
)

type persistedEntry struct {
	Coord         ecosys.Coord     `json:"coord"`
	Availability  Availability     `json:"availability"`
	RecoveredFrom string           `json:"recoveredFrom,omitempty"`
	Sources       []sources.ID     `json:"sources"`
	ObservedAt    time.Time        `json:"observedAt"`
	ReleasedAt    time.Time        `json:"releasedAt"`
	RemovedAt     time.Time        `json:"removedAt"`
	Hash          string           `json:"hash,omitempty"`
	Artifact      *ecosys.Artifact `json:"artifact,omitempty"`
	// Blob references the artifact's bytes in a content-addressed store;
	// used by the manifest encoding (see manifest.go), never by WriteJSON.
	Blob string `json:"blob,omitempty"`
	// Stats preserves the entry's exact per-source accounting so a restored
	// dataset (engine warm restart) keeps applying correct accounting
	// deltas when later batches extend the entry. Absent in legacy exports;
	// readers fall back to the availability approximation.
	Stats *EntryStat `json:"stats,omitempty"`
}

type persistedResult struct {
	Mode        string                 `json:"mode"`
	CollectedAt time.Time              `json:"collectedAt"`
	PerSource   map[string]SourceStats `json:"perSource"`
	Entries     []persistedEntry       `json:"entries"`
}

// WriteJSON serialises the dataset deterministically.
func (r *Result) WriteJSON(w io.Writer, mode ExportMode) error {
	p := persistedResult{
		CollectedAt: r.CollectedAt,
		PerSource:   make(map[string]SourceStats, len(r.PerSource)),
	}
	switch mode {
	case ExportFull:
		p.Mode = "full"
	default:
		p.Mode = "public"
	}
	ids := make([]sources.ID, 0, len(r.PerSource))
	for id := range r.PerSource {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p.PerSource[fmt.Sprint(int(id))] = r.PerSource[id]
	}
	for _, e := range r.Entries {
		pe := persistedEntry{
			Coord:         e.Coord,
			Availability:  e.Availability,
			RecoveredFrom: e.RecoveredFrom,
			Sources:       e.Sources,
			ObservedAt:    e.ObservedAt,
			ReleasedAt:    e.ReleasedAt,
			RemovedAt:     e.RemovedAt,
		}
		if e.Artifact != nil {
			pe.Hash = e.Artifact.Hash()
			if mode == ExportFull {
				pe.Artifact = e.Artifact
			}
		}
		if es, ok := r.EntryStatFor(e.Coord.Key()); ok {
			pe.Stats = &es
		}
		p.Entries = append(p.Entries, pe)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// ReadJSON restores a dataset written with WriteJSON. Public-mode datasets
// come back with nil artifacts but intact accounting; hash fields let
// a later artifact supplement be verified against the original collection.
func ReadJSON(rd io.Reader) (*Result, error) {
	var p persistedResult
	if err := json.NewDecoder(rd).Decode(&p); err != nil {
		return nil, fmt.Errorf("dataset decode: %w", err)
	}
	res := &Result{
		CollectedAt: p.CollectedAt,
		PerSource:   make(map[sources.ID]SourceStats, len(p.PerSource)),
	}
	for raw, st := range p.PerSource {
		var id int
		if _, err := fmt.Sscanf(raw, "%d", &id); err != nil {
			return nil, fmt.Errorf("dataset decode: bad source id %q", raw)
		}
		res.PerSource[sources.ID(id)] = st
	}
	for _, pe := range p.Entries {
		e := &Entry{
			Coord:         pe.Coord,
			Availability:  pe.Availability,
			RecoveredFrom: pe.RecoveredFrom,
			Sources:       pe.Sources,
			ObservedAt:    pe.ObservedAt,
			ReleasedAt:    pe.ReleasedAt,
			RemovedAt:     pe.RemovedAt,
			Artifact:      pe.Artifact,
		}
		if pe.Artifact != nil && pe.Hash != "" && pe.Artifact.Hash() != pe.Hash {
			return nil, fmt.Errorf("dataset decode: artifact hash mismatch for %s", pe.Coord)
		}
		if pe.Stats != nil {
			if res.statsByKey == nil {
				res.statsByKey = make(map[string]EntryStat, len(p.Entries))
			}
			res.statsByKey[e.Coord.Key()] = *pe.Stats
		}
		res.Entries = append(res.Entries, e)
		res.byKey.Set(e.Coord.Key(), e)
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		return res.Entries[i].Coord.Key() < res.Entries[j].Coord.Key()
	})
	return res, nil
}

// Supplement merges artifacts from another dataset into entries that are
// missing them — the paper's hoped-for community workflow ("we hope the
// community can help us supplement the missing packages"). An artifact is
// accepted only for a coordinate already present. It returns how many
// entries were upgraded.
func (r *Result) Supplement(other *Result) int {
	upgraded := 0
	for _, o := range other.Entries {
		if o.Artifact == nil {
			continue
		}
		e, ok := r.byKey.Get(o.Coord.Key())
		if !ok || e.Artifact != nil {
			continue
		}
		e.Artifact = o.Artifact
		e.Availability = FromSource
		e.RecoveredFrom = "supplement"
		upgraded++
	}
	return upgraded
}

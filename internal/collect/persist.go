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
	"strconv"
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
	// deltas when later batches extend the entry. Absent for a hand-built
	// dataset's entries; readers fall back to the availability
	// approximation.
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

// decodePerSource turns the persisted perSource map, keyed by decimal source
// ID, back into per-source stats. A key must be the canonical decimal form
// of a known source: "3x", "03", "+3" and unknown IDs are rejected. The
// canonical form also makes keys and sources one-to-one, so no two keys can
// land on the same source. Keys are walked sorted, so the same bad input
// always fails on the same key.
func decodePerSource(raw map[string]SourceStats) (map[sources.ID]SourceStats, error) {
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[sources.ID]SourceStats, len(raw))
	for _, k := range keys {
		n, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(n) != k {
			return nil, fmt.Errorf("bad source id %q", k)
		}
		if _, known := sources.InfoFor(sources.ID(n)); !known {
			return nil, fmt.Errorf("unknown source id %q", k)
		}
		out[sources.ID(n)] = raw[k]
	}
	return out, nil
}

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
	// Stats is the entry's recorded accounting (Entry.Stat), so a
	// restored dataset sums the same per-source aggregates and a later
	// batch that extends the entry starts from it. Absent for a hand-built
	// dataset's entries; readers fall back to the availability
	// approximation (Entry.Accounting).
	Stats *EntryStat `json:"stats,omitempty"`
}

type persistedResult struct {
	Mode        string                 `json:"mode"`
	CollectedAt time.Time              `json:"collectedAt"`
	SourceStats map[string]SourceStats `json:"perSource"`
	Entries     []persistedEntry       `json:"entries"`
}

// persisted returns the entry's wire shape without its artifact body: the
// fields WriteJSON and EncodeEntry share.
func persisted(e *Entry) persistedEntry {
	pe := persistedEntry{
		Coord:         e.Coord,
		Availability:  e.Availability,
		RecoveredFrom: e.RecoveredFrom,
		Sources:       e.Sources,
		ObservedAt:    e.ObservedAt,
		ReleasedAt:    e.ReleasedAt,
		RemovedAt:     e.RemovedAt,
		Stats:         e.Stat,
	}
	if e.Artifact != nil {
		pe.Hash = e.Artifact.Hash()
	}
	return pe
}

// WriteJSON serialises the dataset deterministically, with the per-source
// accounting SourceStats sums from the entries.
func (r *Result) WriteJSON(w io.Writer, mode ExportMode) error {
	perSource := r.SourceStats()
	p := persistedResult{
		CollectedAt: r.CollectedAt,
		SourceStats: make(map[string]SourceStats, len(perSource)),
	}
	switch mode {
	case ExportFull:
		p.Mode = "full"
	default:
		p.Mode = "public"
	}
	for id, st := range perSource {
		p.SourceStats[fmt.Sprint(int(id))] = st
	}
	for _, e := range r.Entries {
		pe := persisted(e)
		if mode == ExportFull {
			pe.Artifact = e.Artifact
		}
		p.Entries = append(p.Entries, pe)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

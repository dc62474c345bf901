package collect

// Manifest persistence splits the dataset into per-entry records so a
// segmented checkpoint (snapshot v5) can delta-log only the entries that
// changed since the previous checkpoint. The wire shape per entry is the
// same persistedEntry used by WriteJSON, except the artifact body is
// replaced by a content-store blob reference — the store holds the bytes,
// the manifest holds the pointer, and the hash field still lets the
// reattached artifact be verified against the original collection.

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"malgraph/internal/sources"
)

// ResultHeader is the dataset-level state outside the entries: collection
// time and per-source accounting. It is embedded inline in a manifest
// (it is small and changes every batch).
type ResultHeader struct {
	CollectedAt time.Time              `json:"collectedAt"`
	PerSource   map[string]SourceStats `json:"perSource"`
}

// EncodeHeader captures the dataset-level state for a manifest.
func (r *Result) EncodeHeader() ResultHeader {
	h := ResultHeader{
		CollectedAt: r.CollectedAt,
		PerSource:   make(map[string]SourceStats, len(r.PerSource)),
	}
	for id, st := range r.PerSource {
		h.PerSource[fmt.Sprint(int(id))] = st
	}
	return h
}

// EncodeEntry serialises one entry in the persisted wire shape with its
// artifact elided: blobRef (may be empty for artifact-less entries) points
// at the content-store blob holding the artifact bytes.
func (r *Result) EncodeEntry(e *Entry, blobRef string) ([]byte, error) {
	pe := persistedEntry{
		Coord:         e.Coord,
		Availability:  e.Availability,
		RecoveredFrom: e.RecoveredFrom,
		Sources:       e.Sources,
		ObservedAt:    e.ObservedAt,
		ReleasedAt:    e.ReleasedAt,
		RemovedAt:     e.RemovedAt,
		Blob:          blobRef,
	}
	if e.Artifact != nil {
		pe.Hash = e.Artifact.Hash()
	}
	if es, ok := r.EntryStatFor(e.Coord.Key()); ok {
		pe.Stats = &es
	}
	return json.Marshal(pe)
}

// DecodedEntry is one manifest entry plus the sidecar state that does not
// live on Entry itself.
type DecodedEntry struct {
	Entry   *Entry
	Stat    *EntryStat
	BlobRef string
	Hash    string // expected artifact hash; verify after attaching the blob
}

// DecodeEntry parses one record written by EncodeEntry. The artifact is not
// attached — the caller resolves BlobRef against the content store and sets
// Entry.Artifact before AssembleResult verifies it.
func DecodeEntry(data []byte) (DecodedEntry, error) {
	var pe persistedEntry
	if err := json.Unmarshal(data, &pe); err != nil {
		return DecodedEntry{}, fmt.Errorf("manifest entry decode: %w", err)
	}
	return DecodedEntry{
		Entry: &Entry{
			Coord:         pe.Coord,
			Availability:  pe.Availability,
			RecoveredFrom: pe.RecoveredFrom,
			Sources:       pe.Sources,
			ObservedAt:    pe.ObservedAt,
			ReleasedAt:    pe.ReleasedAt,
			RemovedAt:     pe.RemovedAt,
			Artifact:      pe.Artifact,
		},
		Stat:    pe.Stats,
		BlobRef: pe.Blob,
		Hash:    pe.Hash,
	}, nil
}

// AssembleResult rebuilds a dataset from a manifest header and decoded
// entries (artifacts already attached by the caller). Entries are verified
// against their recorded hashes and indexed exactly as ReadJSON would.
func AssembleResult(h ResultHeader, entries []DecodedEntry) (*Result, error) {
	res := &Result{
		CollectedAt: h.CollectedAt,
		PerSource:   make(map[sources.ID]SourceStats, len(h.PerSource)),
	}
	for raw, st := range h.PerSource {
		var id int
		if _, err := fmt.Sscanf(raw, "%d", &id); err != nil {
			return nil, fmt.Errorf("manifest decode: bad source id %q", raw)
		}
		res.PerSource[sources.ID(id)] = st
	}
	for _, de := range entries {
		e := de.Entry
		if e.Artifact != nil && de.Hash != "" && e.Artifact.Hash() != de.Hash {
			return nil, fmt.Errorf("manifest decode: artifact hash mismatch for %s", e.Coord)
		}
		if de.Stat != nil {
			if res.statsByKey == nil {
				res.statsByKey = make(map[string]EntryStat, len(entries))
			}
			res.statsByKey[e.Coord.Key()] = *de.Stat
		}
		res.Entries = append(res.Entries, e)
		res.byKey.Set(e.Coord.Key(), e)
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		return res.Entries[i].Coord.Key() < res.Entries[j].Coord.Key()
	})
	return res, nil
}

package collect

// Manifest persistence splits the dataset into per-entry records so a
// segmented checkpoint (a v9 manifest) can delta-log only the entries that
// changed since the previous checkpoint. The wire shape per entry is the
// same persistedEntry used by WriteJSON, except the artifact body is
// replaced by a content-store blob reference — the store holds the bytes,
// the manifest holds the pointer, and the hash field still lets the
// reattached artifact be verified against the original collection.

import (
	"encoding/json"
	"fmt"
	"time"

	"malgraph/internal/ecosys"
)

// ResultHeader is the dataset-level state outside the entries: the
// collection time. It is embedded inline in a manifest. (A v5 to v8
// manifest's header also carried the per-source accounting, which the
// entries' own stats sum to; a reader ignores it.)
type ResultHeader struct {
	CollectedAt time.Time `json:"collectedAt"`
}

// EncodeHeader captures the dataset-level state for a manifest.
func (r *Result) EncodeHeader() ResultHeader {
	return ResultHeader{CollectedAt: r.CollectedAt}
}

// EncodeEntry serialises one entry in the persisted wire shape with its
// artifact elided: blobRef (may be empty for artifact-less entries) points
// at the content-store blob holding the artifact bytes.
func EncodeEntry(e *Entry, blobRef string) ([]byte, error) {
	pe := persisted(e)
	pe.Blob = blobRef
	return json.Marshal(pe)
}

// DecodedEntry is one manifest entry plus the sidecar state that does not
// live on Entry itself.
type DecodedEntry struct {
	Entry   *Entry
	BlobRef string
	Hash    string // expected artifact hash; AttachArtifact verifies it
}

// DecodeEntry parses one record written by EncodeEntry. The artifact is not
// attached — the caller resolves BlobRef against the content store and
// attaches the artifact through AttachArtifact, which verifies it against
// the record's hash. A record EncodeEntry cannot write is refused: one
// with an inline artifact, and one with an artifact hash but no blob (its
// artifact would be lost without an error).
func DecodeEntry(data []byte) (DecodedEntry, error) {
	var pe persistedEntry
	if err := json.Unmarshal(data, &pe); err != nil {
		return DecodedEntry{}, fmt.Errorf("manifest entry decode: %w", err)
	}
	switch {
	case pe.Artifact != nil:
		return DecodedEntry{}, fmt.Errorf("manifest entry %s: inline artifact (a manifest entry references its artifact blob)", pe.Coord)
	case pe.Hash != "" && pe.Blob == "":
		return DecodedEntry{}, fmt.Errorf("manifest entry %s: artifact hash without a blob", pe.Coord)
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
			Stat:          pe.Stats,
		},
		BlobRef: pe.Blob,
		Hash:    pe.Hash,
	}, nil
}

// AttachArtifact sets art as the entry's artifact once it hashes to the
// record's hash; a record without a hash attaches art unchecked. It
// computes art's hash either way, so the caller's worker pays the SHA-256.
func (de *DecodedEntry) AttachArtifact(art *ecosys.Artifact) error {
	if h := art.Hash(); de.Hash != "" && h != de.Hash {
		return fmt.Errorf("manifest decode: artifact hash mismatch for %s", de.Entry.Coord)
	}
	de.Entry.Artifact = art
	return nil
}

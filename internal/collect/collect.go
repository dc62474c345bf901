// Package collect implements the paper's data-collection methodology
// (§II-B): merge the records of all ten online sources, download artifacts
// from the sources that carry them, and recover the remaining packages by
// querying registry mirrors by name/version. It also produces the
// availability accounting behind Table I, Table V (local/global missing
// rates) and Fig. 7 (release timeline of missing packages).
package collect

import (
	"fmt"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/graph/cow"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
)

// Availability classifies how (or whether) a package's artifact was obtained.
type Availability int

// Availability outcomes.
const (
	// FromSource means an artifact-carrying source (open dataset) had it.
	FromSource Availability = iota + 1
	// FromMirror means a mirror lookup by name/version recovered it.
	FromMirror
	// Missing means no channel produced the artifact (name/version only).
	Missing
)

var availabilityNames = map[Availability]string{
	FromSource: "from-source",
	FromMirror: "from-mirror",
	Missing:    "missing",
}

// String names the outcome.
func (a Availability) String() string {
	if s, ok := availabilityNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Availability(%d)", int(a))
}

// Entry is one deduplicated malicious package in the merged dataset.
type Entry struct {
	Coord         ecosys.Coord
	Artifact      *ecosys.Artifact // nil when Missing
	Availability  Availability
	RecoveredFrom string       // mirror/registry name when FromMirror
	Sources       []sources.ID // every source that reported it, ascending
	ObservedAt    time.Time    // earliest observation across sources
	ReleasedAt    time.Time    // from registry metadata (may be zero)
	RemovedAt     time.Time    // from registry metadata (may be zero)
}

// OccurrenceCount returns how many sources reported the package (Fig. 6).
func (e *Entry) OccurrenceCount() int { return len(e.Sources) }

// SourceStats is the per-source availability accounting of Tables I and V.
type SourceStats struct {
	Total            int // packages the source reported
	LocalUnavailable int // source channel + mirrors failed
	GlobalMissing    int // every channel failed (no other source had it)
}

// LocalMR is N_m_i / N_i.
func (s SourceStats) LocalMR() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.LocalUnavailable) / float64(s.Total)
}

// GlobalMR is Σx_k / N_i (x_k = 1 only when no other source supplements).
func (s SourceStats) GlobalMR() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.GlobalMissing) / float64(s.Total)
}

// Result is the merged dataset plus accounting.
type Result struct {
	Entries     []*Entry // sorted by coordinate key
	PerSource   map[sources.ID]SourceStats
	CollectedAt time.Time

	byKey cow.Map[*Entry]
	// statsByKey records each entry's contribution to PerSource, so the
	// dataset can be replayed as batches (see feed.go) whose per-entry
	// accounting sums back to the whole, and so an incremental resolve
	// (see resolve.go) can apply exact accounting deltas when a later
	// batch extends an entry. Populated by Run, maintained by
	// ApplyEntryStat, and persisted with the dataset; nil for datasets
	// assembled by hand (BatchOf then falls back to the
	// availability-derived approximation).
	statsByKey map[string]EntryStat
}

// EntryStat is one entry's per-source accounting contribution: which of its
// sources counted it locally unavailable, and whether it was globally
// missing. Total is implicit — every source of the entry counts one.
type EntryStat struct {
	Local  []sources.ID `json:"local,omitempty"`
	Global bool         `json:"global,omitempty"`
}

// NewResult returns an empty dataset shell for incremental assembly (the
// streaming-ingest path: core.Engine merges batch entries into one of these).
func NewResult(at time.Time) *Result {
	return &Result{
		PerSource:   make(map[sources.ID]SourceStats),
		CollectedAt: at,
	}
}

// Run executes the collection pipeline at the given instant against any
// registry View — the in-process simulation fleet or a RemoteFleet speaking
// HTTP to live registry servers. It is one Resolver pass over every source
// record against an empty dataset: the batch's entries (key-sorted), their
// per-entry accounting and its PerSource delta are the dataset. A registry
// failure other than not-found aborts the run with ErrUnresolved rather
// than being recorded as a takedown.
func Run(set *sources.Set, fleet registry.View, at time.Time) (*Result, error) {
	if set == nil || fleet == nil {
		return nil, fmt.Errorf("collect: nil sources or fleet")
	}
	res := NewResult(at)
	b, keys, err := NewResolver(fleet, at).resolve(observations(set), res)
	if err != nil {
		return nil, err
	}
	res.Entries = b.Entries
	for i, e := range b.Entries {
		res.byKey.Set(keys[i], e)
	}
	res.PerSource = b.PerSource
	res.statsByKey = b.Stats
	return res, nil
}

// Entry returns the dataset entry for a coordinate.
func (r *Result) Entry(coord ecosys.Coord) (*Entry, bool) {
	return r.byKey.Get(coord.Key())
}

// EntryByKey returns the dataset entry for a coordinate key — the lookup the
// segmented checkpoint uses to resolve dirty keys back to live entries.
func (r *Result) EntryByKey(key string) (*Entry, bool) {
	return r.byKey.Get(key)
}

// View returns a read-only snapshot of the dataset for concurrent readers.
// The entry slice and per-source aggregates are copied and the lookup index
// is cloned copy-on-write in O(1) (cow.Map.Clone — so View needs the same
// exclusive access as a write; the next write to the index copies its
// shard table once); *Entry values are shared — UpsertBatch never
// mutates a stored entry in place (changed entries are replaced with fresh
// merged copies), so shared pointers stay consistent however far the
// original advances. The view carries no per-entry accounting
// (statsByKey): it serves analyses and queries, not feeds or upserts.
func (r *Result) View() *Result {
	v := &Result{
		Entries:     make([]*Entry, len(r.Entries)),
		PerSource:   make(map[sources.ID]SourceStats, len(r.PerSource)),
		CollectedAt: r.CollectedAt,
		byKey:       r.byKey.Clone(),
	}
	copy(v.Entries, r.Entries)
	for id, st := range r.PerSource {
		v.PerSource[id] = st
	}
	return v
}

// Available returns the entries with artifacts, sorted by coordinate key.
func (r *Result) Available() []*Entry {
	var out []*Entry
	for _, e := range r.Entries {
		if e.Availability != Missing {
			out = append(out, e)
		}
	}
	return out
}

// MissingEntries returns the artifact-less entries.
func (r *Result) MissingEntries() []*Entry {
	var out []*Entry
	for _, e := range r.Entries {
		if e.Availability == Missing {
			out = append(out, e)
		}
	}
	return out
}

// MissingCount counts the artifact-less entries in one pass, without the
// slice MissingEntries builds.
func (r *Result) MissingCount() int {
	n := 0
	for _, e := range r.Entries {
		if e.Availability == Missing {
			n++
		}
	}
	return n
}

// TotalMR is the dataset-wide missing rate (paper: 39.27%).
func (r *Result) TotalMR() float64 {
	return MissingRate(r.MissingCount(), len(r.Entries))
}

// MissingRate is missing / total, 0 for an empty dataset.
func MissingRate(missing, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}

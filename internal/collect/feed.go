package collect

// Batch replay turns a one-shot collection Result into the feed a long-lived
// ingest service consumes: the paper's registries and report feeds publish new
// malicious packages continuously (§II-B), so the streaming architecture
// replays the simulated world's timeline as time-ordered entry batches, each
// entry carrying the per-source accounting Run recorded for it. core.Engine
// ingests these batches; UpsertBatch below is the merge primitive it uses to
// maintain its own incremental Result.

import (
	"slices"
	"sort"
	"time"

	"malgraph/internal/sources"
)

// Batch is one ingest installment of dataset entries, whether replayed from
// a collected dataset (TimelineBatches, PartitionBatches) or resolved from
// raw observations (Resolver.Resolve). Each entry carries its own
// accounting (Entry.Stat).
type Batch struct {
	Entries []*Entry
	// PerSource is never set or read; only the servebench harness names it.
	PerSource map[sources.ID]SourceStats
	// Stats is never set or read; only the servebench harness names it.
	Stats map[string]EntryStat
	// At is the collection instant of the originating dataset (constant
	// across batches — availability was evaluated once, at collection time).
	At time.Time
}

// TimelineBatches partitions the dataset into k time-ordered batches (by
// earliest observation, ties broken by coordinate key) of near-equal size. k
// is clamped to [1, len(entries)]; an empty dataset yields a single empty
// batch.
func TimelineBatches(r *Result, k int) []Batch {
	ordered := make([]*Entry, len(r.Entries))
	copy(ordered, r.Entries)
	sort.Slice(ordered, func(i, j int) bool {
		if !ordered[i].ObservedAt.Equal(ordered[j].ObservedAt) {
			return ordered[i].ObservedAt.Before(ordered[j].ObservedAt)
		}
		return ordered[i].Coord.Key() < ordered[j].Coord.Key()
	})
	return PartitionBatches(r, ordered, k)
}

// PartitionBatches splits an explicit entry ordering into k contiguous
// batches, each entry with its recorded accounting. The ordering must be a
// permutation of r.Entries (the shuffle property tests exercise arbitrary
// permutations; TimelineBatches supplies the timeline ordering).
func PartitionBatches(r *Result, ordered []*Entry, k int) []Batch {
	if k < 1 {
		k = 1
	}
	if k > len(ordered) && len(ordered) > 0 {
		k = len(ordered)
	}
	if len(ordered) == 0 {
		return []Batch{{At: r.CollectedAt}}
	}
	out := make([]Batch, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(ordered)/k, (i+1)*len(ordered)/k
		out = append(out, Batch{Entries: ordered[lo:hi], At: r.CollectedAt})
	}
	return out
}

// UpsertResult reports what one UpsertBatch entry did to the dataset: the
// stored (merged) entry, whether the coordinate was new, whether anything
// changed, and the pre-merge source/artifact state incremental consumers
// (core.Engine) diff against.
type UpsertResult struct {
	Entry        *Entry
	Added        bool
	Changed      bool
	PrevSources  []sources.ID
	PrevArtifact bool
}

// UpsertBatch merges a batch of entries into the dataset. A new coordinate
// stores the entry as-is and reports Added. A known coordinate is merged
// field-wise — union of sources, earliest observation, artifact adopted when
// previously absent, zero timestamps filled, a recorded accounting adopted
// when it differs from the stored one — into a fresh copy (the previously
// stored entry is never mutated, so pointers handed out before
// the upsert stay consistent snapshots); Changed reports whether anything
// differed. Entries stays sorted by key: new coordinates are collected aside
// and merged into the slice once at the end — O(n + b log b) per batch
// instead of an O(n) memmove per new coordinate. Nil entries are skipped (no
// result emitted). Later batch entries see earlier ones (two records of the
// same new coordinate merge exactly as two one-entry batches would).
func (r *Result) UpsertBatch(entries []*Entry) []UpsertResult {
	out := make([]UpsertResult, 0, len(entries))
	var pending []*Entry
	var pendingKeys []string
	var pendingIdx map[string]int
	for _, e := range entries {
		if e == nil {
			continue
		}
		key := e.Coord.Key()
		cur, ok := r.byKey.Get(key)
		if !ok {
			r.byKey.Set(key, e)
			if pendingIdx == nil {
				pendingIdx = make(map[string]int)
			}
			pendingIdx[key] = len(pending)
			pending = append(pending, e)
			pendingKeys = append(pendingKeys, key)
			out = append(out, UpsertResult{Entry: e, Added: true})
			continue
		}
		res := UpsertResult{Entry: cur, PrevSources: cur.Sources, PrevArtifact: cur.Artifact != nil}
		next, changed := mergeEntry(cur, e)
		if changed {
			res.Entry, res.Changed = next, true
			r.byKey.Set(key, next)
			if pi, isPending := pendingIdx[key]; isPending {
				pending[pi] = next
			} else {
				i := sort.Search(len(r.Entries), func(i int) bool { return r.Entries[i].Coord.Key() >= key })
				r.Entries[i] = next
			}
		}
		out = append(out, res)
	}
	if len(pending) > 0 {
		r.mergeInserts(pending, pendingKeys)
	}
	return out
}

// mergeEntry merges an incoming record into a stored entry, returning a fresh
// merged copy and whether anything differed (the stored entry is never
// mutated, so pointers handed out earlier stay consistent snapshots).
func mergeEntry(cur, e *Entry) (*Entry, bool) {
	next := *cur
	changed := false
	if srcs, grew := unionSources(cur.Sources, e.Sources); grew {
		next.Sources = srcs
		changed = true
	}
	if !e.ObservedAt.IsZero() && (next.ObservedAt.IsZero() || e.ObservedAt.Before(next.ObservedAt)) {
		next.ObservedAt = e.ObservedAt
		changed = true
	}
	if next.Artifact == nil && e.Artifact != nil {
		next.Artifact = e.Artifact
		next.Availability = e.Availability
		next.RecoveredFrom = e.RecoveredFrom
		changed = true
	} else if next.Availability == FromMirror && e.Availability == FromSource {
		// A later batch brought a source that carries the artifact. Run
		// resolves source-first, so the one-shot collection of the merged
		// observations classifies this entry FromSource; adopt that
		// classification (the artifact content is the same package either
		// way) to keep any-partition ingest equivalent to one-shot.
		next.Availability = FromSource
		next.RecoveredFrom = ""
		changed = true
	}
	if next.ReleasedAt.IsZero() && !e.ReleasedAt.IsZero() {
		next.ReleasedAt = e.ReleasedAt
		changed = true
	}
	if next.RemovedAt.IsZero() && !e.RemovedAt.IsZero() {
		next.RemovedAt = e.RemovedAt
		changed = true
	}
	if e.Stat != nil && !e.Stat.equal(cur.Accounting()) {
		next.Stat = e.Stat
		changed = true
	}
	if !changed {
		return cur, false
	}
	return &next, true
}

// mergeInserts splices the batch's new entries (parallel pendingKeys carry
// their coordinate keys) into the key-sorted Entries slice with one backwards
// in-place merge: b binary searches locate the insertion points (Coord.Key
// allocates, so comparisons are kept off the move path) and the old entries
// move in contiguous copy chunks.
func (r *Result) mergeInserts(pending []*Entry, pendingKeys []string) {
	sort.Sort(&entriesByKey{pending, pendingKeys})
	old := r.Entries
	pos := make([]int, len(pending))
	hi := len(old)
	for j := len(pending) - 1; j >= 0; j-- {
		key := pendingKeys[j]
		pos[j] = sort.Search(hi, func(i int) bool { return old[i].Coord.Key() >= key })
		hi = pos[j]
	}
	r.Entries = append(r.Entries, pending...)
	k := len(r.Entries) - 1
	hi = len(old)
	for j := len(pending) - 1; j >= 0; j-- {
		n := hi - pos[j]
		copy(r.Entries[k-n+1:k+1], old[pos[j]:hi])
		k -= n
		r.Entries[k] = pending[j]
		k--
		hi = pos[j]
	}
}

// entriesByKey sorts a pending insert slice and its parallel key slice
// together (keys are precomputed once — Coord.Key allocates).
type entriesByKey struct {
	entries []*Entry
	keys    []string
}

func (s *entriesByKey) Len() int           { return len(s.entries) }
func (s *entriesByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *entriesByKey) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// unionSources merges two ascending source lists, reporting whether the
// result has members beyond a.
func unionSources(a, b []sources.ID) ([]sources.ID, bool) {
	missing := 0
	for _, id := range b {
		if !slices.Contains(a, id) {
			missing++
		}
	}
	if missing == 0 {
		return a, false
	}
	out := make([]sources.ID, 0, len(a)+missing)
	out = append(out, a...)
	for _, id := range b {
		if !slices.Contains(a, id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

package collect

// Batch replay turns a one-shot collection Result into the feed a long-lived
// ingest service consumes: the paper's registries and report feeds publish new
// malicious packages continuously (§II-B), so the streaming architecture
// replays the simulated world's timeline as time-ordered entry batches whose
// per-batch source accounting sums back to the whole. core.Engine ingests
// these batches; the Upsert/AddSourceStats helpers below are the merge
// primitives it uses to maintain its own incremental Result.

import (
	"sort"
	"time"

	"malgraph/internal/sources"
)

// Batch is one feed installment: a slice of dataset entries plus the slice of
// per-source accounting those entries contributed to the full collection.
type Batch struct {
	Entries   []*Entry
	PerSource map[sources.ID]SourceStats
	// Stats carries each entry's absolute per-source accounting, keyed by
	// coordinate. Consumers that merge batches incrementally (core.Engine)
	// apply the delta against their recorded stat instead of trusting the
	// PerSource aggregate, which keeps accounting exact even when the same
	// coordinate is extended by several batches (the external ingest path)
	// or a batch is replayed after a warm restart.
	Stats map[string]EntryStat
	// At is the collection instant of the originating dataset (constant
	// across batches — availability was evaluated once, at collection time).
	At time.Time
}

// Feed iterates a dataset as consecutive batches.
type Feed struct {
	batches []Batch
	next    int
}

// NewFeed partitions the dataset into k time-ordered batches (by earliest
// observation, ties broken by coordinate key) of near-equal size. k is
// clamped to [1, len(entries)]; an empty dataset yields a single empty batch.
func NewFeed(r *Result, k int) *Feed {
	ordered := make([]*Entry, len(r.Entries))
	copy(ordered, r.Entries)
	sort.Slice(ordered, func(i, j int) bool {
		if !ordered[i].ObservedAt.Equal(ordered[j].ObservedAt) {
			return ordered[i].ObservedAt.Before(ordered[j].ObservedAt)
		}
		return ordered[i].Coord.Key() < ordered[j].Coord.Key()
	})
	return &Feed{batches: PartitionBatches(r, ordered, k)}
}

// PartitionBatches splits an explicit entry ordering into k contiguous
// batches with accounting sliced per batch. The ordering must be a
// permutation of r.Entries (the shuffle property tests exercise arbitrary
// permutations; NewFeed supplies the timeline ordering).
func PartitionBatches(r *Result, ordered []*Entry, k int) []Batch {
	if k < 1 {
		k = 1
	}
	if k > len(ordered) && len(ordered) > 0 {
		k = len(ordered)
	}
	if len(ordered) == 0 {
		return []Batch{{PerSource: map[sources.ID]SourceStats{}, At: r.CollectedAt}}
	}
	out := make([]Batch, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(ordered)/k, (i+1)*len(ordered)/k
		out = append(out, r.BatchOf(ordered[lo:hi]))
	}
	return out
}

// Next returns the next batch, or ok=false when the feed is exhausted.
func (f *Feed) Next() (Batch, bool) {
	if f.next >= len(f.batches) {
		return Batch{}, false
	}
	b := f.batches[f.next]
	f.next++
	return b, true
}

// Len returns the total number of batches in the feed.
func (f *Feed) Len() int { return len(f.batches) }

// Remaining returns how many batches Next has not yet returned.
func (f *Feed) Remaining() int { return len(f.batches) - f.next }

// BatchOf assembles the batch for a subset of this dataset's entries,
// attributing exactly the per-source accounting those entries generated
// during Run. For datasets without recorded per-entry stats (hand-built or
// JSON-loaded), the accounting is approximated from each entry's final
// availability: a Missing entry counts against every source that reported it.
func (r *Result) BatchOf(entries []*Entry) Batch {
	b := Batch{
		Entries:   entries,
		PerSource: make(map[sources.ID]SourceStats),
		Stats:     make(map[string]EntryStat, len(entries)),
		At:        r.CollectedAt,
	}
	for _, e := range entries {
		es, recorded := r.EntryStatFor(e.Coord.Key())
		if !recorded && e.Availability == Missing {
			es = EntryStat{Local: e.Sources, Global: true}
		}
		b.Stats[e.Coord.Key()] = es
		for _, id := range e.Sources {
			st := b.PerSource[id]
			st.Total++
			b.PerSource[id] = st
		}
		for _, id := range es.Local {
			st := b.PerSource[id]
			st.LocalUnavailable++
			if es.Global {
				st.GlobalMissing++
			}
			b.PerSource[id] = st
		}
	}
	return b
}

// EntryStatFor returns the recorded per-source accounting for a coordinate
// key. recorded=false when the dataset carries no per-entry stats for it
// (hand-built datasets or legacy JSON); callers then fall back to the
// availability-derived approximation BatchOf uses.
func (r *Result) EntryStatFor(key string) (EntryStat, bool) {
	if r.statsByKey == nil {
		return EntryStat{}, false
	}
	es, ok := r.statsByKey[key]
	return es, ok
}

// ApplyEntryStat replaces the recorded accounting for key with next and
// applies the difference to PerSource (locally-unavailable and
// globally-missing counts only — Total is attributed by the caller, which
// knows which sources are newly observed). Applying an identical stat is a
// no-op, so batch replays are idempotent, and a later batch that upgrades an
// entry (new carrying source, recovered artifact) corrects the aggregates
// exactly.
func (r *Result) ApplyEntryStat(key string, next EntryStat) {
	if r.statsByKey == nil {
		r.statsByKey = make(map[string]EntryStat)
	}
	ApplyStatDelta(r.PerSource, r.statsByKey[key], next)
	r.statsByKey[key] = next
}

// ApplyStatDelta applies the per-source aggregate difference between an
// entry's old and next accounting to agg. It is the single implementation of
// the telescoping-delta algorithm: ApplyEntryStat uses it against a dataset's
// PerSource, the observation resolver against a batch's delta map — the two
// must agree bit-for-bit for the partition-equivalence contract to hold.
func ApplyStatDelta(agg map[sources.ID]SourceStats, old, next EntryStat) {
	for _, s := range next.Local {
		in := containsID(old.Local, s)
		st := agg[s]
		if !in {
			st.LocalUnavailable++
		}
		if next.Global && !(old.Global && in) {
			st.GlobalMissing++
		}
		agg[s] = st
	}
	for _, s := range old.Local {
		in := containsID(next.Local, s)
		st := agg[s]
		if !in {
			st.LocalUnavailable--
		}
		if old.Global && !(next.Global && in) {
			st.GlobalMissing--
		}
		agg[s] = st
	}
}

// AddTotals attributes newly observed (source, package) pairs to PerSource.
func (r *Result) AddTotals(ids []sources.ID) {
	for _, id := range ids {
		st := r.PerSource[id]
		st.Total++
		r.PerSource[id] = st
	}
}

// AddSourceStats accumulates a batch's per-source accounting.
func (r *Result) AddSourceStats(stats map[sources.ID]SourceStats) {
	for id, st := range stats {
		cur := r.PerSource[id]
		cur.Total += st.Total
		cur.LocalUnavailable += st.LocalUnavailable
		cur.GlobalMissing += st.GlobalMissing
		r.PerSource[id] = cur
	}
}

// Upsert merges one entry into the dataset. A new coordinate stores the entry
// as-is and reports added=true. A known coordinate is merged field-wise —
// union of sources, earliest observation, artifact adopted when previously
// absent, zero timestamps filled — into a fresh copy (the previously stored
// entry is never mutated, so pointers handed out before the upsert stay
// consistent snapshots); changed reports whether anything differed. The
// merged (or stored) entry is returned. Entries stays sorted by key.
//
// Each new coordinate shifts the sorted Entries slice — O(n) per insert. For
// batch ingest use UpsertBatch, which defers the inserts and pays one merge.
func (r *Result) Upsert(e *Entry) (merged *Entry, added, changed bool) {
	out := r.UpsertBatch([]*Entry{e})
	return out[0].Entry, out[0].Added, out[0].Changed
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

// UpsertBatch merges a batch of entries with Upsert's exact field-wise
// semantics, but amortises the sorted-Entries maintenance: new coordinates
// are collected aside and merged into the slice once at the end — O(n + b
// log b) per batch instead of Upsert's O(n) memmove per new coordinate (a
// ROADMAP-listed corpus-linear append term). Nil entries are skipped (no
// result emitted). Later batch entries see earlier ones (two records of the
// same new coordinate merge exactly as two sequential Upserts would).
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
		if !containsID(a, id) {
			missing++
		}
	}
	if missing == 0 {
		return a, false
	}
	out := make([]sources.ID, 0, len(a)+missing)
	out = append(out, a...)
	for _, id := range b {
		if !containsID(a, id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

func containsID(ids []sources.ID, id sources.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

package collect

import (
	"reflect"
	"testing"

	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
)

func runFixture(t *testing.T) *Result {
	t.Helper()
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sumBatches replays a feed and accumulates it like the engine does: one
// Total per newly observed source, then each entry's recorded stat.
func sumBatches(t *testing.T, r *Result, batches []Batch) *Result {
	t.Helper()
	acc := NewResult(r.CollectedAt)
	total := 0
	for _, b := range batches {
		for _, e := range b.Entries {
			if _, added, _ := acc.Upsert(e); !added {
				t.Fatalf("entry %s appeared in two batches", e.Coord)
			}
			acc.AddTotals(e.Sources)
			total++
		}
		for key, st := range b.Stats {
			acc.ApplyEntryStat(key, st)
		}
	}
	if total != len(r.Entries) {
		t.Fatalf("batches carried %d entries, dataset has %d", total, len(r.Entries))
	}
	return acc
}

func TestFeedTimeOrderedPartition(t *testing.T) {
	res := runFixture(t)
	batches := TimelineBatches(res, 2)
	if len(batches) != 2 {
		t.Fatalf("feed shape: %d batches", len(batches))
	}
	var prevLast *Entry
	for _, b := range batches {
		// Time ordering holds across batch boundaries.
		for _, e := range b.Entries {
			if prevLast != nil && e.ObservedAt.Before(prevLast.ObservedAt) {
				t.Fatalf("batch entries out of time order: %v < %v", e.ObservedAt, prevLast.ObservedAt)
			}
			prevLast = e
		}
	}

	acc := sumBatches(t, res, batches)
	// Merged accounting equals the one-shot accounting, source by source.
	for _, info := range sources.Catalog() {
		if got, want := acc.PerSource[info.ID], res.PerSource[info.ID]; got != want {
			t.Fatalf("%s stats: batched %+v, one-shot %+v", info.ID, got, want)
		}
	}
	// Entries land sorted by key, like a one-shot Run.
	for i, e := range acc.Entries {
		if e != res.Entries[i] && e.Coord.Key() != res.Entries[i].Coord.Key() {
			t.Fatalf("entry %d: %s vs %s", i, e.Coord, res.Entries[i].Coord)
		}
	}
	if acc.TotalMR() != res.TotalMR() {
		t.Fatalf("missing rate: batched %v, one-shot %v", acc.TotalMR(), res.TotalMR())
	}
}

func TestFeedClampsK(t *testing.T) {
	res := runFixture(t)
	if got := len(TimelineBatches(res, 0)); got != 1 {
		t.Fatalf("k=0 feed len = %d", got)
	}
	if got := len(TimelineBatches(res, 100)); got != len(res.Entries) {
		t.Fatalf("k=100 feed len = %d (entries %d)", got, len(res.Entries))
	}
	empty := NewResult(day(30))
	batches := TimelineBatches(empty, 3)
	if len(batches) != 1 || len(batches[0].Entries) != 0 {
		t.Fatalf("empty feed = %+v", batches)
	}
}

func TestBatchOfFallbackWithoutRecordedStats(t *testing.T) {
	res := runFixture(t)
	recorded := res.BatchOf(res.Entries)
	// Simulate a JSON round-trip losing per-entry stats.
	res.statsByKey = nil
	b := res.BatchOf(res.Entries)
	// Unavailability falls back to final availability, which for this
	// fixture (every locally-unavailable entry is globally missing) matches
	// the recorded accounting, entry by entry and summed.
	if !reflect.DeepEqual(b.Stats, recorded.Stats) {
		t.Fatalf("fallback stats %+v, recorded %+v", b.Stats, recorded.Stats)
	}
	acc := sumBatches(t, res, []Batch{b})
	for _, info := range sources.Catalog() {
		if got, want := acc.PerSource[info.ID], res.PerSource[info.ID]; got != want {
			t.Fatalf("%s fallback stats: %+v want %+v", info.ID, got, want)
		}
	}
}

func TestUpsertMergesAndCopies(t *testing.T) {
	acc := NewResult(day(30))
	coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-x", Version: "1.0.0"}
	first := &Entry{Coord: coord, Availability: Missing, Sources: []sources.ID{sources.Snyk}, ObservedAt: day(5)}
	stored, added, changed := acc.Upsert(first)
	if !added || changed || stored != first {
		t.Fatalf("first upsert: added=%v changed=%v", added, changed)
	}

	second := &Entry{
		Coord: coord, Availability: FromSource, Artifact: art("pkg-x"),
		Sources: []sources.ID{sources.Backstabber}, ObservedAt: day(3), ReleasedAt: day(1),
	}
	merged, added, changed := acc.Upsert(second)
	if added || !changed {
		t.Fatalf("merge upsert: added=%v changed=%v", added, changed)
	}
	if len(merged.Sources) != 2 || merged.Sources[0] != sources.Backstabber || merged.Sources[1] != sources.Snyk {
		t.Fatalf("merged sources = %v", merged.Sources)
	}
	if merged.Artifact == nil || merged.Availability != FromSource {
		t.Fatalf("artifact not adopted: %+v", merged)
	}
	if !merged.ObservedAt.Equal(day(3)) || !merged.ReleasedAt.Equal(day(1)) {
		t.Fatalf("timestamps not merged: %+v", merged)
	}
	// The originally stored entry must not have been mutated.
	if len(first.Sources) != 1 || first.Artifact != nil {
		t.Fatalf("first entry mutated: %+v", first)
	}
	// Idempotent re-upsert of the merged state is a no-op.
	if _, added, changed := acc.Upsert(second); added || changed {
		t.Fatal("re-upsert must be a no-op")
	}
	if got, ok := acc.Entry(coord); !ok || got != merged {
		t.Fatalf("Entry lookup after merge: %+v ok=%v", got, ok)
	}
}

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

// sumBatches replays a feed into a fresh dataset like the engine does,
// each entry with the accounting it carries.
func sumBatches(t *testing.T, r *Result, batches []Batch) *Result {
	t.Helper()
	acc := NewResult(r.CollectedAt)
	total := 0
	for _, b := range batches {
		for _, e := range b.Entries {
			if _, added, _ := acc.Upsert(e); !added {
				t.Fatalf("entry %s appeared in two batches", e.Coord)
			}
			total++
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
	if got, want := acc.SourceStats(), res.SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats: batched %+v, one-shot %+v", got, want)
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
	// Simulate a JSON round-trip losing per-entry stats.
	stripped := make([]*Entry, len(res.Entries))
	for i, e := range res.Entries {
		cp := *e
		cp.Stat = nil
		stripped[i] = &cp
	}
	// Unavailability falls back to final availability, which for this
	// fixture (every locally-unavailable entry is globally missing) matches
	// the recorded accounting, entry by entry and summed.
	for i, e := range stripped {
		if got, want := e.Accounting(), *res.Entries[i].Stat; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s fallback stat %+v, recorded %+v", e.Coord, got, want)
		}
	}
	acc := sumBatches(t, res, []Batch{{Entries: stripped, At: res.CollectedAt}})
	if got, want := acc.SourceStats(), res.SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback stats: %+v want %+v", got, want)
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

// TestUpsertAdoptsDifferingStat: an incoming recorded stat that differs
// from the stored entry's accounting is adopted and counts as a change (so
// a checkpoint's dirty marks follow it), on a fresh copy; an equal stat or
// none changes nothing.
func TestUpsertAdoptsDifferingStat(t *testing.T) {
	acc := NewResult(day(30))
	coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-x", Version: "1.0.0"}
	entry := func(st *EntryStat) *Entry {
		return &Entry{Coord: coord, Availability: Missing, Sources: []sources.ID{sources.Snyk, sources.Socket}, ObservedAt: day(5), Stat: st}
	}
	first := entry(nil)
	acc.Upsert(first)
	if _, _, changed := acc.Upsert(entry(&EntryStat{Local: []sources.ID{sources.Snyk, sources.Socket}, Global: true})); changed {
		t.Fatal("a stat equal to the unrecorded entry's fallback accounting changed it")
	}
	next := &EntryStat{Local: []sources.ID{sources.Socket}}
	merged, _, changed := acc.Upsert(entry(next))
	if !changed || merged.Stat != next || first.Stat != nil {
		t.Fatalf("differing stat: changed=%v stored %+v, first entry's %+v", changed, merged.Stat, first.Stat)
	}
	want := map[sources.ID]SourceStats{sources.Snyk: {Total: 1}, sources.Socket: {Total: 1, LocalUnavailable: 1}}
	if got := acc.SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SourceStats = %+v, want %+v", got, want)
	}
	for _, st := range []*EntryStat{nil, {Local: []sources.ID{sources.Socket}}} {
		if _, _, changed := acc.Upsert(entry(st)); changed {
			t.Fatalf("re-upsert with stat %+v changed the entry", st)
		}
	}
}

package collect

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
	"malgraph/internal/xrand"
)

// upsertEntry fabricates a bare entry for the batch-upsert tests.
func upsertEntry(i int, srcs ...sources.ID) *Entry {
	return &Entry{
		Coord: ecosys.Coord{
			Ecosystem: ecosys.PyPI,
			Name:      fmt.Sprintf("pkg-%04d", i),
			Version:   "1.0.0",
		},
		Availability: Missing,
		Sources:      srcs,
		ObservedAt:   time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
	}
}

// Upsert merges one entry with UpsertBatch's semantics, as a one-entry
// batch: the sequential reference the batch tests and BenchmarkUpsertPerEntry
// compare against. Each new coordinate shifts the sorted Entries slice —
// O(n) per insert.
func (r *Result) Upsert(e *Entry) (merged *Entry, added, changed bool) {
	out := r.UpsertBatch([]*Entry{e})
	return out[0].Entry, out[0].Added, out[0].Changed
}

// TestUpsertBatchMatchesSequential is the equivalence property: UpsertBatch
// must leave the dataset — sorted Entries, byKey, per-entry outcomes — in
// exactly the state sequential Upserts produce, for shuffled mixes of new
// coordinates, repeats, merges and nils.
func TestUpsertBatchMatchesSequential(t *testing.T) {
	rng := xrand.New(7)
	var in []*Entry
	for i := 0; i < 200; i++ {
		in = append(in, upsertEntry(rng.Intn(120), sources.ID(1+rng.Intn(3))))
	}
	in = append(in, nil) // nils are skipped without an outcome
	for i := len(in) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		in[i], in[j] = in[j], in[i]
	}

	seq := NewResult(time.Time{})
	var seqOut []UpsertResult
	for _, e := range in {
		if e == nil {
			continue
		}
		cur, existed := seq.Entry(e.Coord)
		res := UpsertResult{}
		if existed {
			res.PrevSources = cur.Sources
			res.PrevArtifact = cur.Artifact != nil
		}
		res.Entry, res.Added, res.Changed = seq.Upsert(e)
		seqOut = append(seqOut, res)
	}

	bat := NewResult(time.Time{})
	batOut := bat.UpsertBatch(in)

	if !reflect.DeepEqual(batOut, seqOut) {
		t.Fatalf("outcomes differ: batch %d results, sequential %d", len(batOut), len(seqOut))
	}
	if !reflect.DeepEqual(bat.Entries, seq.Entries) {
		t.Fatalf("entries differ: batch %d, sequential %d", len(bat.Entries), len(seq.Entries))
	}
	if !sort.SliceIsSorted(bat.Entries, func(i, j int) bool {
		return bat.Entries[i].Coord.Key() < bat.Entries[j].Coord.Key()
	}) {
		t.Fatal("batch-upserted entries not key-sorted")
	}
	// A second, overlapping batch must merge instead of duplicate.
	more := []*Entry{upsertEntry(0, 2), upsertEntry(500, 1)}
	out := bat.UpsertBatch(more)
	if out[0].Added || !out[1].Added {
		t.Fatalf("second batch outcomes: %+v", out)
	}
	seq.Upsert(more[0])
	seq.Upsert(more[1])
	if !reflect.DeepEqual(bat.Entries, seq.Entries) {
		t.Fatal("second batch diverged from sequential upserts")
	}
}

// BenchmarkUpsertPerEntry is the pre-ISSUE-5 ingest shape: one sorted-slice
// shift per new coordinate, O(corpus) each — the ROADMAP-listed linear
// append term.
func BenchmarkUpsertPerEntry(b *testing.B) {
	benchmarkUpsert(b, func(r *Result, batch []*Entry) {
		for _, e := range batch {
			r.Upsert(e)
		}
	})
}

// BenchmarkUpsertBatch collects the batch's inserts and pays one merge.
func BenchmarkUpsertBatch(b *testing.B) {
	benchmarkUpsert(b, func(r *Result, batch []*Entry) {
		r.UpsertBatch(batch)
	})
}

func benchmarkUpsert(b *testing.B, apply func(*Result, []*Entry)) {
	const corpus, delta = 20000, 512
	base := make([]*Entry, corpus)
	for i := range base {
		base[i] = upsertEntry(i, 1)
	}
	batch := make([]*Entry, delta)
	for i := range batch {
		batch[i] = upsertEntry(corpus+i*7, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewResult(time.Time{})
		r.UpsertBatch(base)
		b.StartTimer()
		apply(r, batch)
	}
}

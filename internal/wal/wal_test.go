package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func journalPath(dir string) string { return filepath.Join(dir, journalName) }

func mustAppend(t *testing.T, l *Log, kind string, payload []byte) uint64 {
	t.Helper()
	seq, err := l.Append(kind, payload)
	if err != nil {
		t.Fatalf("append %q: %v", kind, err)
	}
	return seq
}

func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(after, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Seq: 1, Kind: "external", Payload: []byte(`{"observations":[1,2,3]}`)},
		{Seq: 2, Kind: "feed", Payload: []byte(`{"batches":1}`)},
		{Seq: 3, Kind: "external", Payload: nil},
	}
	for _, r := range want {
		if got := mustAppend(t, l, r.Kind, r.Payload); got != r.Seq {
			t.Fatalf("seq = %d, want %d", got, r.Seq)
		}
	}
	check := func(l *Log) {
		t.Helper()
		got := replayAll(t, l, 0)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind ||
				string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		after := replayAll(t, l, 2)
		if len(after) != len(want)-2 || after[0].Seq != 3 {
			t.Fatalf("replay after 2 = %+v, want records 3..%d", after, len(want))
		}
	}
	check(l)
	// Replay must leave the write position at the tail.
	if seq := mustAppend(t, l, "feed", []byte("x")); seq != 4 {
		t.Fatalf("append after replay: seq %d, want 4", seq)
	}
	want = append(want, Record{Seq: 4, Kind: "feed", Payload: []byte("x")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents, counter resumes.
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq after reopen = %d, want 4", l2.LastSeq())
	}
	if seq := mustAppend(t, l2, "feed", nil); seq != 5 {
		t.Fatalf("seq after reopen = %d, want 5", seq)
	}
}

// TestRecordFrameBytes pins one record's frame: body length, CRC-32
// (IEEE) of the body, then seq, kind length, kind and payload, all little
// endian. A journal written by any build must keep these bytes.
func TestRecordFrameBytes(t *testing.T) {
	const want = "150000009f561da9" + "0700000000000000" + "0400" + "6b696e64" + "7061796c6f6164"
	if got := fmt.Sprintf("%x", encodeRecord(7, "kind", []byte("payload"))); got != want {
		t.Fatalf("frame %s, want %s", got, want)
	}
	l, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(50, func() { mustAppend(t, l, "observations", payload) }); allocs > 1 {
		t.Errorf("Append: %.1f allocations per record, want the frame's one", allocs)
	}
}

// TestTornTailEveryByteBoundary cuts the journal after every byte of the
// final record and verifies Open truncates back to the last intact record
// instead of failing — the crash-mid-append recovery path.
func TestTornTailEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "external", []byte("first payload"))
	mustAppend(t, l, "feed", []byte("second"))
	intact := l.Size()
	mustAppend(t, l, "external", []byte("the final record, torn mid-write"))
	full := l.Size()
	l.Close()
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	for cut := intact; cut < full; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			d2 := t.TempDir()
			if err := os.WriteFile(journalPath(d2), raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			lt, err := Open(d2, nil)
			if err != nil {
				t.Fatalf("torn tail must recover, not error: %v", err)
			}
			defer lt.Close()
			if lt.Size() != intact || lt.LastSeq() != 2 {
				t.Fatalf("recovered size=%d lastSeq=%d, want size=%d lastSeq=2",
					lt.Size(), lt.LastSeq(), intact)
			}
			if st, err := os.Stat(journalPath(d2)); err != nil || st.Size() != intact {
				t.Fatalf("file not truncated: size=%d err=%v", st.Size(), err)
			}
			// The recovered log must accept new appends with a fresh sequence.
			if seq := mustAppend(t, lt, "feed", nil); seq != 3 {
				t.Fatalf("post-recovery seq = %d, want 3", seq)
			}
			recs := replayAll(t, lt, 0)
			if len(recs) != 3 || recs[2].Seq != 3 {
				t.Fatalf("post-recovery replay = %+v", recs)
			}
		})
	}
}

func TestCorruptedMiddleRecordDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "a", []byte("one"))
	firstEnd := l.Size()
	mustAppend(t, l, "b", []byte("two"))
	mustAppend(t, l, "c", []byte("three"))
	l.Close()

	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+headerSize+3] ^= 0xFF // flip a byte inside record 2's body
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("corruption must truncate, not error: %v", err)
	}
	defer l2.Close()
	// Everything from the corrupt record on is gone; record 1 survives.
	if l2.LastSeq() != 1 || l2.Size() != firstEnd {
		t.Fatalf("lastSeq=%d size=%d, want 1/%d", l2.LastSeq(), l2.Size(), firstEnd)
	}
}

func TestResetKeepsSequenceCounter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, "a", []byte("x"))
	mustAppend(t, l, "a", []byte("y"))
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.AppendedBytes() != 0 {
		t.Fatalf("reset left size=%d appended=%d", l.Size(), l.AppendedBytes())
	}
	if seq := mustAppend(t, l, "a", []byte("z")); seq != 3 {
		t.Fatalf("post-reset seq = %d, want 3 (counter must survive truncation)", seq)
	}
	recs := replayAll(t, l, 0)
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("post-reset replay = %+v, want just seq 3", recs)
	}
}

func TestEnsureSeqSkipsSnapshotCoveredRange(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A restored snapshot carries appliedSeq=7; the journal is empty.
	l.EnsureSeq(7)
	if seq := mustAppend(t, l, "a", nil); seq != 8 {
		t.Fatalf("seq = %d, want 8", seq)
	}
	l.EnsureSeq(3) // must never lower the counter
	if seq := mustAppend(t, l, "a", nil); seq != 9 {
		t.Fatalf("seq = %d, want 9", seq)
	}
}

func TestEmptyAndMissingJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("open must create nested dirs: %v", err)
	}
	defer l.Close()
	if l.LastSeq() != 0 || l.Size() != 0 {
		t.Fatalf("fresh journal lastSeq=%d size=%d", l.LastSeq(), l.Size())
	}
	if recs := replayAll(t, l, 0); len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, "a", nil)
	mustAppend(t, l, "a", nil)
	boom := fmt.Errorf("boom")
	var seen []uint64
	err = l.Replay(0, func(r Record) error {
		seen = append(seen, r.Seq)
		return boom
	})
	if err != boom || !reflect.DeepEqual(seen, []uint64{1}) {
		t.Fatalf("err=%v seen=%v", err, seen)
	}
}

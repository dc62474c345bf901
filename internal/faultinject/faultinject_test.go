package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"malgraph/internal/wal"
)

// TestFailedAppendLeavesJournalConsistent scripts a torn write under the
// WAL and verifies the failed append is rolled back: the journal stays
// usable, the sequence is not burned, and replay sees only intact records.
func TestFailedAppendLeavesJournalConsistent(t *testing.T) {
	for _, torn := range []int{0, 5} {
		fs := NewFS(nil)
		l, err := wal.Open(t.TempDir(), fs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append("a", []byte("survives")); err != nil {
			t.Fatal(err)
		}
		fs.FailWrite(1, torn)
		if _, err := l.Append("a", []byte("torn away")); !errors.Is(err, ErrInjected) {
			t.Fatalf("torn=%d: append err = %v, want ErrInjected", torn, err)
		}
		// The journal must absorb the fault: next append succeeds and
		// takes the sequence the failed one never burned.
		seq, err := l.Append("a", []byte("after the fault"))
		if err != nil {
			t.Fatalf("torn=%d: append after fault: %v", torn, err)
		}
		if seq != 2 {
			t.Fatalf("torn=%d: seq = %d, want 2", torn, seq)
		}
		var kinds []uint64
		if err := l.Replay(0, func(r wal.Record) error {
			kinds = append(kinds, r.Seq)
			return nil
		}); err != nil {
			t.Fatalf("torn=%d: replay: %v", torn, err)
		}
		if len(kinds) != 2 || kinds[0] != 1 || kinds[1] != 2 {
			t.Fatalf("torn=%d: replayed seqs %v, want [1 2]", torn, kinds)
		}
		l.Close()
	}
}

// TestFailedSyncRollsBack mirrors the write-fault test for a failing
// fsync: the record reached the file but durability was never promised,
// so it must be rolled back, not replayed.
func TestFailedSyncRollsBack(t *testing.T) {
	fs := NewFS(nil)
	l, err := wal.Open(t.TempDir(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.FailSync(1)
	if _, err := l.Append("a", []byte("unsynced")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append err = %v, want ErrInjected", err)
	}
	seq, err := l.Append("a", []byte("good"))
	if err != nil || seq != 1 {
		t.Fatalf("append after sync fault: seq=%d err=%v, want seq=1", seq, err)
	}
	count := 0
	if err := l.Replay(0, func(wal.Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records, want 1 (unsynced record must not survive)", count)
	}
}

func TestTransportErrorThenSucceed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	tr := NewTransport(nil)
	hc := &http.Client{Transport: tr}

	// Two transport errors, then the real server answers.
	tr.FailNext(2, 0)
	for i := 0; i < 2; i++ {
		if _, err := hc.Get(srv.URL); !errors.Is(err, ErrInjected) {
			t.Fatalf("request %d: err = %v, want ErrInjected", i, err)
		}
	}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("third request must pass through: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body = %q", body)
	}
	if tr.Attempts() != 3 || tr.Injected() != 2 {
		t.Fatalf("attempts=%d injected=%d, want 3/2", tr.Attempts(), tr.Injected())
	}
}

func TestTransportStatusInjection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("real"))
	}))
	defer srv.Close()

	tr := NewTransport(nil)
	tr.Match(func(r *http.Request) bool { return r.URL.Path == "/api/v1/package" })
	tr.FailNext(1, http.StatusServiceUnavailable)
	hc := &http.Client{Transport: tr}

	// Non-matching path sails through untouched.
	resp, err := hc.Get(srv.URL + "/api/v1/info")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unmatched request: %v status=%v", err, resp)
	}
	resp.Body.Close()

	resp, err = hc.Get(srv.URL + "/api/v1/package")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}

	resp, err = hc.Get(srv.URL + "/api/v1/package")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "real" {
		t.Fatalf("second matching request must pass through, got %q", body)
	}
	if tr.Attempts() != 2 {
		t.Fatalf("matched attempts = %d, want 2", tr.Attempts())
	}
}

// TestSlowReaderPacesDelivery verifies the slow-loris body model: content
// arrives complete but in delayed chunk-sized pieces.
func TestSlowReaderPacesDelivery(t *testing.T) {
	const body = "0123456789"
	r := SlowReader(strings.NewReader(body), 3, time.Millisecond)
	start := time.Now()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body {
		t.Fatalf("read %q, want %q", got, body)
	}
	// 10 bytes at ≤3/read is ≥4 reads, each sleeping ≥1ms.
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("delivery took %v, want the per-chunk delays to add up", elapsed)
	}
}

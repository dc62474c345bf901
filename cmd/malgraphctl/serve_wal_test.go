package main

// Serve-level durability (ISSUE 6): the -wal recovery sequence cmdServe
// wires up — restore snapshot, replay the journal suffix, attach — must
// carry a server's ingested state across a crash, auto-checkpoints must
// fold journal bytes into the snapshot and truncate, and the ingest
// responses must hand out the durable sequence the push client resumes by.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"malgraph"
	"malgraph/internal/collect"
	"malgraph/internal/faultinject"
	"malgraph/internal/wal"
)

// recoverPipeline performs cmdServe's startup sequence: snapshot restore
// through the default store if the file exists (overlapping the world
// build), journal replay, attach. Returns the pipeline and its journal
// (caller closes).
func recoverPipeline(t *testing.T, batches int, snapshotPath, walDir string) (*malgraph.Pipeline, *wal.Log) {
	t.Helper()
	p := warmRestart(t, batches, snapshotPath)
	j, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReplayJournal(j); err != nil {
		t.Fatalf("replay: %v", err)
	}
	p.AttachJournal(j)
	return p, j
}

func TestServeWALRecoveryAcrossRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")

	// Generation 1: journaled server, no checkpoint ever taken.
	s1, ts1 := newTestServer(t, 4, snapshotPath)
	j1, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.p.AttachJournal(j1)
	s1.wal = j1
	s1.checkpointBytes = 1 << 30 // never auto-checkpoint in this generation

	one := postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	if one["seq"].(float64) != 1 {
		t.Fatalf("first ingest seq = %v", one["seq"])
	}
	two := postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	if two["seq"].(float64) != 2 {
		t.Fatalf("second ingest seq = %v", two["seq"])
	}
	stats1 := s1.p.Stats()
	ts1.Close()
	if err := j1.Close(); err != nil { // the crash: no checkpoint, journal only
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath); !os.IsNotExist(err) {
		t.Fatalf("no checkpoint was requested, snapshot exists: %v", err)
	}

	// Generation 2: cold snapshot, the journal carries both batches.
	p2, j2 := recoverPipeline(t, 4, snapshotPath, walDir)
	if p2.LastSeq() != 2 {
		t.Fatalf("recovered seq %d, want 2", p2.LastSeq())
	}
	if got := p2.Stats(); !reflect.DeepEqual(got, stats1) {
		t.Fatalf("recovered stats %+v\nwant %+v", got, stats1)
	}
	s2 := newServer(p2, snapshotPath, p2.Store())
	s2.wal = j2
	s2.checkpointBytes = 1 // checkpoint after every journaled byte
	ts2 := httptest.NewServer(s2.handler())

	three := postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
	if three["seq"].(float64) != 3 {
		t.Fatalf("post-recovery ingest seq = %v", three["seq"])
	}
	// The ingest crossed the checkpoint budget: snapshot written, journal
	// truncated.
	if _, err := os.Stat(snapshotPath); err != nil {
		t.Fatalf("auto-checkpoint did not write the snapshot: %v", err)
	}
	if sz := j2.Size(); sz != 0 {
		t.Fatalf("journal not truncated after checkpoint: %d bytes", sz)
	}
	stats2 := s2.p.Stats()
	ts2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: everything lives in the snapshot now, the journal is
	// empty — and new ingests continue the sequence past the checkpoint.
	p3, j3 := recoverPipeline(t, 4, snapshotPath, walDir)
	defer j3.Close()
	if p3.LastSeq() != 3 {
		t.Fatalf("snapshot-only recovery seq %d, want 3", p3.LastSeq())
	}
	if got := p3.Stats(); !reflect.DeepEqual(got, stats2) {
		t.Fatalf("snapshot-only recovered stats %+v\nwant %+v", got, stats2)
	}
	if _, ok, err := p3.AppendNext(); err != nil || !ok {
		t.Fatalf("final feed batch: ok=%v err=%v", ok, err)
	}
	if p3.LastSeq() != 4 {
		t.Fatalf("seq after final batch = %d, want 4", p3.LastSeq())
	}
	if pending := p3.PendingBatches(); pending != 0 {
		t.Fatalf("feed not drained after recovery: %d pending", pending)
	}

	// The drained, thrice-restarted pipeline matches an uninterrupted drain.
	ref, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ref.PendingBatches() > 0 {
		if _, _, err := ref.AppendNext(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := p3.Stats(), ref.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted drain stats %+v\nwant uninterrupted %+v", got, want)
	}
}

// TestIngestPartialFailureReportsAppliedBatches: when a multi-batch drain
// fails midway (here: the second batch's journal fsync), the batches that
// were already journaled and applied are durable and their feed positions
// consumed — the 500 response is the only place their per-batch stats can
// ever reach the client, so it must carry them (plus the durable sequence)
// instead of a bare error.
func TestIngestPartialFailureReportsAppliedBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	s, ts := newTestServer(t, 4, "")
	fi := faultinject.NewFS(nil)
	j, err := wal.Open(filepath.Join(t.TempDir(), "wal"), fi)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.p.AttachJournal(j)
	s.wal = j

	// The drain journals batch 1 (fsync 1), then batch 2's journal append
	// fails at its fsync: batch 1 is durable and applied, batch 2 rolls
	// back untouched.
	fi.FailSync(2)
	out := postJSON(t, ts.URL+"/api/v1/ingest?all=1", http.StatusInternalServerError)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "injected fault") {
		t.Fatalf("error = %v, want the injected journal failure", out["error"])
	}
	ingested, ok := out["ingested"].([]any)
	if !ok || len(ingested) != 1 {
		t.Fatalf("partial failure reported %v ingested batches, want 1", out["ingested"])
	}
	if out["seq"].(float64) != 1 {
		t.Fatalf("partial failure seq = %v, want 1 (the applied batch)", out["seq"])
	}
	if out["pending"].(float64) != 3 {
		t.Fatalf("pending after partial failure = %v, want 3", out["pending"])
	}

	// The failpoint was one-shot: the drain resumes where it stopped and
	// finishes, burning no feed positions for the rolled-back batch.
	out2 := postJSON(t, ts.URL+"/api/v1/ingest?all=1", http.StatusOK)
	if got := len(out2["ingested"].([]any)); got != 3 {
		t.Fatalf("resumed drain ingested %d batches, want 3", got)
	}
	if out2["seq"].(float64) != 4 {
		t.Fatalf("seq after resumed drain = %v, want 4", out2["seq"])
	}
	if out2["pending"].(float64) != 0 {
		t.Fatalf("pending after resumed drain = %v, want 0", out2["pending"])
	}
}

// newWALTestServer serves a fresh 0.02-scale pipeline journaling to walDir,
// with auto-checkpoints off. Returns the server and its journal (caller
// closes).
func newWALTestServer(t *testing.T, walDir string) (*server, *httptest.Server, *wal.Log) {
	t.Helper()
	s, ts := newTestServer(t, 1, "")
	j, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.p.AttachJournal(j)
	s.wal = j
	return s, ts, j
}

// postBody POSTs body to url and returns the status.
func postBody(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestServeWALObservationsTrailingBytesRefused: the journaled record of a
// push is its body, so a body with bytes after its JSON value is refused
// with 400 before anything is journaled; the same body without them lands.
func TestServeWALObservationsTrailingBytesRefused(t *testing.T) {
	s, ts, j := newWALTestServer(t, t.TempDir())
	defer j.Close()
	obs := collect.ObservationsFromSources(s.p.World.Sources)[:10]
	body, err := json.Marshal(map[string]any{"observations": obs})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{" x", "{}", "\x00"} {
		if got := postBody(t, ts.URL+"/api/v1/observations", append(slices.Clone(body), tail...)); got != http.StatusBadRequest {
			t.Fatalf("body + %q: status %d, want 400", tail, got)
		}
	}
	if seq, size := j.LastSeq(), j.Size(); seq != 0 || size != 0 {
		t.Fatalf("refused bodies journaled: seq %d, %d bytes", seq, size)
	}
	if got := postBody(t, ts.URL+"/api/v1/observations", append(body, " \n"...)); got != http.StatusOK {
		t.Fatalf("body + whitespace: status %d, want 200", got)
	}
	if seq := j.LastSeq(); seq != 1 {
		t.Fatalf("journal seq %d after one accepted push, want 1", seq)
	}
}

// TestServeWALObservationsBodyIgnoresReports: an observations push that
// also carries a top-level "reports" member ingests no report, live or
// after a restart that replays its journal record — which holds the body
// byte for byte under the "observations" kind.
func TestServeWALObservationsBodyIgnoresReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s, ts, j := newWALTestServer(t, walDir)
	_, reps := s.p.Source()
	obs := collect.ObservationsFromSources(s.p.World.Sources)[:40]
	body, err := json.Marshal(map[string]any{"reports": reps[:3], "observations": obs})
	if err != nil {
		t.Fatal(err)
	}
	if got := postBody(t, ts.URL+"/api/v1/observations", body); got != http.StatusOK {
		t.Fatalf("push: status %d", got)
	}
	live := s.p.Stats()
	if live.Reports != 0 || live.Entries == 0 {
		t.Fatalf("live push: %d reports, %d entries; want 0 reports and the observations' entries", live.Reports, live.Entries)
	}
	var kinds []string
	if err := j.Replay(0, func(r wal.Record) error {
		kinds = append(kinds, r.Kind)
		if !bytes.Equal(r.Payload, body) {
			t.Errorf("journal payload is not the body as received")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(kinds, []string{"observations"}) {
		t.Fatalf("journal kinds %v, want [observations]", kinds)
	}
	ts.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	p2, j2 := recoverPipeline(t, 1, filepath.Join(dir, "state.json"), walDir)
	defer j2.Close()
	if got := p2.Stats(); !reflect.DeepEqual(got, live) {
		t.Fatalf("replayed stats %+v\nwant live %+v", got, live)
	}
}

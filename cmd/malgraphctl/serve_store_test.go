package main

// Serve-level segmented checkpoints: the recovery sequence — restore the
// manifest against the content store, replay the journal suffix, attach —
// must carry state across restarts; a v4 file an earlier serve wrote must
// be refused without touching it, its archives or the store; the snapshot
// bundle GET must round-trip into a fresh
// store, and its reader must refuse hostile bundles without leaving files
// behind; retention must keep the configured number of manifests; and a
// kill mid-segment-write or mid-compaction must never lose a checkpoint.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"malgraph"
	"malgraph/internal/castore"
	"malgraph/internal/core"
	"malgraph/internal/faultinject"
	"malgraph/internal/wal"
)

// TestServeStoreRecoveryAcrossRestarts is the segmented mirror of
// TestServeWALRecoveryAcrossRestarts: generation 1 crashes with journal
// only, generation 2 recovers and auto-checkpoints through the store
// (publishing a manifest and truncating the journal), generation 3
// recovers from manifest + store alone and finishes the feed — matching an
// uninterrupted drain.
func TestServeStoreRecoveryAcrossRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")

	// Generation 1: store attached cold, journaled, no checkpoint taken.
	s1, ts1 := newTestServer(t, 4, snapshotPath)
	store1 := s1.store
	j1, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.p.AttachJournal(j1)
	s1.wal = j1
	s1.checkpointBytes = 1 << 30 // never auto-checkpoint in this generation

	postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	stats1 := s1.p.Stats()
	ts1.Close()
	if err := j1.Close(); err != nil { // the crash: journal only, empty store
		t.Fatal(err)
	}
	if store1.Len() != 0 {
		t.Fatalf("no checkpoint ran, yet the store holds %d blobs", store1.Len())
	}

	// Generation 2: journal-only recovery, then an auto-checkpoint writes
	// the first (full re-base) manifest into the store.
	p2, j2 := recoverPipeline(t, 4, snapshotPath, walDir)
	store2 := p2.Store()
	if p2.LastSeq() != 2 {
		t.Fatalf("recovered seq %d, want 2", p2.LastSeq())
	}
	if got := p2.Stats(); !reflect.DeepEqual(got, stats1) {
		t.Fatalf("recovered stats %+v\nwant %+v", got, stats1)
	}
	s2 := newServer(p2, snapshotPath, store2)
	s2.wal = j2
	s2.checkpointBytes = 1 // checkpoint after every journaled byte
	ts2 := httptest.NewServer(s2.handler())

	postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
	manifest1, err := os.ReadFile(snapshotPath)
	if err != nil {
		t.Fatalf("auto-checkpoint did not publish the manifest: %v", err)
	}
	if !bytes.Contains(manifest1, []byte(`"version":7`)) {
		t.Fatalf("store-backed checkpoint wrote a non-v7 snapshot: %.80s", manifest1)
	}
	if store2.Len() == 0 {
		t.Fatal("checkpoint appended no blobs to the store")
	}
	if sz := j2.Size(); sz != 0 {
		t.Fatalf("journal not truncated after checkpoint: %d bytes", sz)
	}

	// A second checkpointed ingest appends a delta segment — the manifest
	// stays small while the chunk chain grows — and archives the previous
	// manifest under retention.
	blobsAfterFull := store2.Len()
	postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
	if got := store2.SegmentCount(); got < 2 {
		t.Fatalf("second checkpoint did not append a delta segment: %d segment(s)", got)
	}
	if store2.Len() <= blobsAfterFull {
		t.Fatal("delta checkpoint added no chunks")
	}
	if _, err := os.Stat(archiveName(snapshotPath, 1)); err != nil {
		t.Fatalf("previous manifest was not archived: %v", err)
	}
	stats2 := s2.p.Stats()
	ts2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: manifest + store only (journal empty). The feed is
	// drained already (4 batches, all ingested); state must match an
	// uninterrupted drain.
	p3, j3 := recoverPipeline(t, 4, snapshotPath, walDir)
	defer j3.Close()
	if p3.LastSeq() != 4 {
		t.Fatalf("manifest-only recovery seq %d, want 4", p3.LastSeq())
	}
	if got := p3.Stats(); !reflect.DeepEqual(got, stats2) {
		t.Fatalf("manifest-only recovered stats %+v\nwant %+v", got, stats2)
	}
	if pending := p3.PendingBatches(); pending != 0 {
		t.Fatalf("feed not drained after recovery: %d pending", pending)
	}
	ref, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ref.PendingBatches() > 0 {
		if _, _, err := ref.AppendNext(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p3.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted drain stats %+v\nwant uninterrupted %+v", got, want)
	}
}

// TestServeRefusesV4Snapshot: serve started on a monolithic v4 file, as an
// earlier serve wrote it, fails naming the format and the last commit that
// reads it. The file's bytes, its archive generations and the store
// directory next to it are left exactly as they were.
func TestServeRefusesV4Snapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	v4 := []byte(`{"version":4,"config":{},"dataset":{"mode":"full","entries":[]},"reports":[],` +
		`"graph":{"nodes":[],"edges":[]},"partitions":{},"items":{},"imports":{},"posting":{},"pairOwners":{},"appliedSeq":1}` + "\n")
	if err := os.WriteFile(snapshotPath, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath+".1", bytes.Replace(v4, []byte(`"appliedSeq":1`), nil, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	blob := []byte("an earlier chunk")
	if _, err := openStore(t, defaultStoreDir(snapshotPath), nil).Append([]castore.Blob{{Key: castore.KeyOf(blob), Data: blob}}); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	err := run([]string{"serve", "-scale", "0.02", "-batches", "2", "-snapshot", snapshotPath, "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("serve started from a v4 snapshot")
	}
	for _, want := range []string{snapshotPath, "monolithic v4", "3e24565"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("serve error %q does not mention %q", err, want)
		}
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused start changed the snapshot directory: %d files before, %d after", len(before), len(after))
	}
}

// dirContents maps every file under root, by relative path, to its bytes.
func dirContents(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeRestartRefusesManifestWithoutItsChunks: a v5 manifest written
// with -store A, restarted with the default store instead, must fail with
// an error naming the store it looked in — never cold-start over it.
func TestServeRestartRefusesManifestWithoutItsChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	p := newTestPipeline(t, 2)
	p.AttachStore(openStore(t, filepath.Join(dir, "a"), nil))
	if _, _, err := p.AppendNext(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(func(snapshot func(io.Writer) error) error {
		return writeFileAtomic(snapshotPath, snapshot)
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-scale", "0.02", "-batches", "2", "-snapshot", snapshotPath, "-addr", "127.0.0.1:0"})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), defaultStoreDir(snapshotPath)) {
			t.Fatalf("serve error = %v, want one naming %s", err, defaultStoreDir(snapshotPath))
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("serve started instead of refusing a manifest whose chunks are missing")
	}
}

// TestServeSnapshotRetention drives checkpoints past the retention budget
// and checks the archive window slides: the newest retain-1 archives stay,
// older ones are pruned.
func TestServeSnapshotRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, 4, snapshotPath)
	s.snapshotRetain = 2
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
		postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	}
	// 4 checkpoints with retain=2: live manifest + exactly the newest
	// archive (generation 3) survive. The default store directory
	// (state.json.store) sits next to them and is no archive generation.
	gens, err := s.archiveGens()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("retained archive generations = %v, want [3]", gens)
	}
	if _, err := os.Stat(snapshotPath); err != nil {
		t.Fatalf("live manifest missing: %v", err)
	}
	// The retained archive is itself restorable against the store.
	f, err := os.Open(archiveName(snapshotPath, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.RestoreEngineWithStore(f, s.store); err != nil {
		t.Fatalf("archived manifest does not restore: %v", err)
	}
}

// readSnapshotBundle is the test-side reader of the snapshot bundle format
// handleSnapshotBundle writes. It consumes a bundle stream, verifying every
// segment's size and CRC, writes the segment files into dir (created if
// needed — a directory castore.Open accepts as-is) and returns the
// manifest bytes to hand to core.RestoreEngineWithStore. On any error it
// removes every file it wrote, so a refused bundle never leaves unverified
// bytes behind for a later castore.Open to index.
func readSnapshotBundle(r io.Reader, dir string) (manifest []byte, err error) {
	written := make(map[string]bool)
	defer func() {
		if err != nil {
			for name := range written {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}()
	br := bufio.NewReader(r)
	readLine := func(v any) error {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return err
		}
		return json.Unmarshal(line, v)
	}
	var hdr bundleHeader
	if err := readLine(&hdr); err != nil {
		return nil, fmt.Errorf("bundle header: %w", err)
	}
	if hdr.Format != bundleFormat {
		return nil, fmt.Errorf("bundle format %q, want %q", hdr.Format, bundleFormat)
	}
	// The header's sizes are untrusted: read through a bounded reader, so a
	// size larger than the stream fails at EOF instead of allocating it.
	if hdr.ManifestSize < 0 {
		return nil, fmt.Errorf("bundle manifest: negative size %d", hdr.ManifestSize)
	}
	if hdr.Segments < 0 {
		return nil, fmt.Errorf("bundle header: negative segment count %d", hdr.Segments)
	}
	manifest, err = io.ReadAll(io.LimitReader(br, int64(hdr.ManifestSize)))
	if err == nil && len(manifest) != hdr.ManifestSize {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("bundle manifest: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < hdr.Segments; i++ {
		var fr bundleFrame
		if err := readLine(&fr); err != nil {
			return nil, fmt.Errorf("bundle frame %d: %w", i, err)
		}
		if _, ok := castore.ParseSegmentName(fr.Name); !ok {
			return nil, fmt.Errorf("bundle frame %d: suspicious segment name %q", i, fr.Name)
		}
		if written[fr.Name] {
			return nil, fmt.Errorf("bundle frame %d: repeated segment name %q", i, fr.Name)
		}
		crc := crc32.NewIEEE()
		f, err := os.Create(filepath.Join(dir, fr.Name))
		if err != nil {
			return nil, err
		}
		written[fr.Name] = true
		n, err := io.Copy(io.MultiWriter(f, crc), io.LimitReader(br, fr.Size))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("bundle segment %s: %w", fr.Name, err)
		}
		if n != fr.Size {
			return nil, fmt.Errorf("bundle segment %s: truncated at %d of %d bytes", fr.Name, n, fr.Size)
		}
		var tr bundleTrailer
		if err := readLine(&tr); err != nil {
			return nil, fmt.Errorf("bundle segment %s trailer: %w", fr.Name, err)
		}
		if got := fmt.Sprintf("%08x", crc.Sum32()); got != tr.CRC32 {
			return nil, fmt.Errorf("bundle segment %s: crc %s, want %s", fr.Name, got, tr.CRC32)
		}
	}
	return manifest, nil
}

// TestServeSnapshotBundleRoundTrip: GET /api/v1/snapshot in store mode
// streams manifest + segments; readSnapshotBundle reconstructs a store
// directory a fresh pipeline restores from, matching the server's state.
func TestServeSnapshotBundleRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, 4, snapshotPath)
	// Two checkpointed ingests so the bundle carries a multi-segment store;
	// the GET runs with no explicit checkpoint after the last ingest — it
	// must serve the last published manifest, not a fresh mutation.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	wantStats := s.p.Stats()

	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("bundle Content-Type = %q", ct)
	}
	cloneDir := filepath.Join(t.TempDir(), "store-clone")
	manifest, err := readSnapshotBundle(resp.Body, cloneDir)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	cloneStore, err := castore.Open(cloneDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cloneStore.Len() != s.store.Len() {
		t.Fatalf("cloned store has %d blobs, server store %d", cloneStore.Len(), s.store.Len())
	}
	eng, err := core.RestoreEngineWithStore(bytes.NewReader(manifest), cloneStore)
	if err != nil {
		t.Fatalf("restore from bundle: %v", err)
	}
	p := newTestPipeline(t, 4)
	p.AdoptEngine(eng)
	if got := p.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("bundle-restored stats %+v\nwant %+v", got, wantStats)
	}

	// A truncated bundle must fail loudly, not produce a silent short store.
	resp2, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	whole, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshotBundle(bytes.NewReader(whole[:len(whole)-10]), filepath.Join(t.TempDir(), "torn")); err == nil {
		t.Fatal("truncated bundle decoded without error")
	}
}

// TestServeCheckpointCrashMidSegmentWrite kills the store's segment write
// under a checkpoint (injected fsync failure): the checkpoint must fail
// without publishing a manifest or truncating the journal, the server keeps
// serving, the retried checkpoint succeeds, and a restart recovers exactly.
func TestServeCheckpointCrashMidSegmentWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")
	fi := faultinject.NewFS(nil) // store-only faults; the journal uses the real fs
	s, ts := newStoreTestServer(t, 4, snapshotPath, openStore(t, defaultStoreDir(snapshotPath), fi))
	j, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.p.AttachJournal(j)
	s.wal = j

	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	journalSize := j.Size()
	if journalSize == 0 {
		t.Fatal("ingest journaled nothing")
	}

	fi.FailSync(1) // the checkpoint's segment fsync
	out := postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusInternalServerError)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "injected fault") {
		t.Fatalf("checkpoint error = %v, want the injected store failure", out["error"])
	}
	if _, err := os.Stat(snapshotPath); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint published a manifest: %v", err)
	}
	if sz := j.Size(); sz != journalSize {
		t.Fatalf("failed checkpoint changed the journal: %d bytes, want %d", sz, journalSize)
	}

	// Fault cleared: ingest and checkpoint proceed, nothing was poisoned.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	if sz := j.Size(); sz != 0 {
		t.Fatalf("journal not truncated after recovered checkpoint: %d bytes", sz)
	}
	stats := s.p.Stats()
	ts.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	p2, j2 := recoverPipeline(t, 4, snapshotPath, walDir)
	defer j2.Close()
	if got := p2.Stats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("recovered stats %+v\nwant %+v", got, stats)
	}
}

// TestServeCompactionCrashKeepsManifestsRestorable interrupts the
// serve-level compaction sweep (injected fsync failure on the merged
// segment): the live manifest and the retained archive must stay
// restorable, and the retried sweep must finish and preserve both.
func TestServeCompactionCrashKeepsManifestsRestorable(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	storeDir := defaultStoreDir(snapshotPath)
	fi := faultinject.NewFS(nil)
	store := openStore(t, storeDir, fi)
	s, ts := newStoreTestServer(t, 4, snapshotPath, store)

	// Build up a multi-segment store: checkpoint after every ingest.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
		postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	}
	if store.SegmentCount() < 2 {
		t.Fatalf("want a multi-segment store, got %d", store.SegmentCount())
	}

	restorable := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		reopened, err := castore.Open(storeDir, nil)
		if err != nil {
			return err
		}
		_, err = core.RestoreEngineWithStore(f, reopened)
		return err
	}

	// The sweep dies at the merged segment's fsync — all old segments stay.
	fi.FailSync(1)
	s.checkpointMu.Lock()
	err := s.compactStore()
	s.checkpointMu.Unlock()
	if err == nil {
		t.Fatal("compaction succeeded despite injected failure")
	}
	for _, path := range []string{snapshotPath, archiveName(snapshotPath, 3)} {
		if err := restorable(path); err != nil {
			t.Fatalf("after interrupted compaction, %s does not restore: %v", path, err)
		}
	}

	// Retried sweep completes; live and archived manifests both survive it.
	s.checkpointMu.Lock()
	err = s.compactStore()
	s.checkpointMu.Unlock()
	if err != nil {
		t.Fatalf("retried compaction: %v", err)
	}
	if got := store.SegmentCount(); got != 1 {
		t.Fatalf("segments after compaction = %d, want 1", got)
	}
	for _, path := range []string{snapshotPath, archiveName(snapshotPath, 3)} {
		if err := restorable(path); err != nil {
			t.Fatalf("after compaction, %s does not restore: %v", path, err)
		}
	}
}

// hostileBundles are bundle streams readSnapshotBundle must refuse, each
// with a fragment of the error it must give.
func hostileBundles() []struct{ name, stream, want string } {
	manifest := `{"version":5}` + "\n"
	header := func(size, segments int) string {
		return fmt.Sprintf(`{"format":%q,"manifestSize":%d,"segments":%d}`+"\n", bundleFormat, size, segments)
	}
	segment := func(name, body, crc string) string {
		return fmt.Sprintf(`{"name":%q,"size":%d}`+"\n%s"+`{"crc32":%q}`+"\n", name, len(body), body, crc)
	}
	good := func(name string) string {
		return segment(name, "{}", fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte("{}"))))
	}
	lead := header(len(manifest), 1) + manifest
	return []struct{ name, stream, want string }{
		{"negative-size", header(-1, 1) + manifest, "negative size"},
		{"negative-segments", header(len(manifest), -1) + manifest, "negative segment count"},
		{"oversized", header(1<<40, 1) + manifest, "unexpected EOF"},
		{"stray-copy-name", lead + good("seg-00000001.json.bak"), "suspicious segment name"},
		{"short-name", lead + good("seg-1.json"), "suspicious segment name"},
		{"path-traversal", lead + good("../seg-00000001.json"), "suspicious segment name"},
		{"repeated-name", header(len(manifest), 2) + manifest + good("seg-00000001.json") + good("seg-00000001.json"), "repeated segment name"},
		{"crc-mismatch", lead + segment("seg-00000001.json", "{}", "00000000"), "crc"},
		{"truncated-body", lead + `{"name":"seg-00000001.json","size":10}` + "\n{}", "truncated at 2 of 10 bytes"},
		{"second-segment-truncated", header(len(manifest), 2) + manifest + good("seg-00000001.json") + `{"name":"seg-00000002.json","size":10}` + "\n{}", "truncated"},
	}
}

// TestReadSnapshotBundleRejectsLyingHeader: the bundle header and frames
// are untrusted input. A negative manifest size or segment count, or a
// size larger than the stream, must fail with an error — never panic or
// allocate the claimed size. A frame naming anything but a canonical
// segment file, or a segment this bundle already wrote, must be refused,
// and so must a body that is short or fails its CRC. A refused bundle
// leaves no file behind, not even the verified segments before the bad one.
func TestReadSnapshotBundleRejectsLyingHeader(t *testing.T) {
	for _, tc := range hostileBundles() {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "clone")
			_, err := readSnapshotBundle(strings.NewReader(tc.stream), dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("readSnapshotBundle error = %v, want one mentioning %q", err, tc.want)
			}
			if names, _ := os.ReadDir(dir); len(names) != 0 {
				t.Fatalf("refused bundle left files behind: %v", names)
			}
		})
	}
}

// FuzzReadSnapshotBundle feeds arbitrary bytes to the bundle reader. It
// must never panic; a refused bundle leaves the directory empty; an
// accepted one leaves exactly the header's count of canonically named
// segment files, each the size its frame declared. Seeds (the hostile
// table plus a real two-segment bundle) live in testdata/fuzz.
//
// A fuzz worker runs one input at a time, so each worker reads every input
// into the one directory it made and empties it afterwards: a directory per
// input would make the step time the filesystem rather than the reader.
func FuzzReadSnapshotBundle(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := readSnapshotBundle(bytes.NewReader(data), dir)
		files, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		defer func() {
			for _, de := range files {
				if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}()
		if err != nil {
			if len(files) != 0 {
				t.Fatalf("refused bundle (%v) left %d file(s) behind", err, len(files))
			}
			return
		}
		segments, sizes := bundleFrameSizes(t, data)
		if len(files) != segments {
			t.Fatalf("accepted bundle wrote %d file(s), header declares %d segment(s)", len(files), segments)
		}
		for _, de := range files {
			if _, ok := castore.ParseSegmentName(de.Name()); !ok {
				t.Fatalf("accepted bundle wrote non-segment file %q", de.Name())
			}
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := sizes[de.Name()]; !ok || info.Size() != want {
				t.Fatalf("segment %s holds %d bytes, its frame declared %d (framed: %v)", de.Name(), info.Size(), want, ok)
			}
		}
	})
}

// bundleFrameSizes walks the framing of a bundle readSnapshotBundle
// accepted: the header's segment count and each frame's declared size by
// segment name.
func bundleFrameSizes(t *testing.T, data []byte) (int, map[string]int64) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	readLine := func(v any) {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("accepted bundle: %v", err)
		}
		if err := json.Unmarshal(line, v); err != nil {
			t.Fatalf("accepted bundle: %v", err)
		}
	}
	skip := func(n int64) {
		if _, err := br.Discard(int(n)); err != nil {
			t.Fatalf("accepted bundle: %v", err)
		}
	}
	var hdr bundleHeader
	readLine(&hdr)
	skip(int64(hdr.ManifestSize))
	sizes := make(map[string]int64, hdr.Segments)
	for i := 0; i < hdr.Segments; i++ {
		var fr bundleFrame
		readLine(&fr)
		skip(fr.Size)
		readLine(&bundleTrailer{})
		sizes[fr.Name] = fr.Size
	}
	return hdr.Segments, sizes
}

package main

// Checkpoints: the snapshot manifest written durably over the chunk store,
// its retained archives, and the background compaction that keeps only the
// chunks a live or retained manifest names.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"malgraph/internal/core"
	"malgraph/internal/wal"
)

// writeFileAtomic durably replaces path with the bytes write produces:
// temp file in the same directory, fsync the file, rename over the target,
// fsync the directory. An interrupted checkpoint never destroys the last
// good snapshot, and a completed rename survives power loss.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return wal.OSFS().SyncDir(dir)
}

// checkpoint writes the snapshot durably and truncates the journal, both
// under the pipeline's ingest lock (Pipeline.Checkpoint) so no concurrent
// handler can journal a batch between the snapshot's sequence stamp and
// the truncation — truncating outside the lock could destroy an
// acknowledged record the snapshot does not contain. The order makes
// losing either step safe: the snapshot lands (stamped with the last
// applied sequence) before any journal bytes disappear, and a crash
// between the two just leaves records that replay as sequence-gated
// no-ops. Returns the sequence the snapshot covers. Caller holds
// checkpointMu.
func (s *server) checkpoint() (uint64, error) {
	seq, err := s.p.Checkpoint(func(snapshot func(io.Writer) error) error {
		if err := s.archiveSnapshot(); err != nil {
			return fmt.Errorf("archive snapshot: %w", err)
		}
		return writeFileAtomic(s.snapshotPath, snapshot)
	})
	s.manifestCurrent = err == nil
	if err != nil {
		return seq, err
	}
	if err := s.pruneArchives(); err != nil {
		// Non-fatal: the checkpoint itself is durable; a stale archive only
		// costs disk (and keeps its chunks alive) until the next prune.
		fmt.Fprintf(os.Stderr, "prune snapshot archives: %v\n", err)
	}
	s.maybeCompact()
	return seq, nil
}

// archiveName is the on-disk name of the gen-th retained snapshot.
func archiveName(path string, gen int) string {
	return fmt.Sprintf("%s.%06d", path, gen)
}

// archiveGens lists the existing snapshot-archive generation numbers next
// to s.snapshotPath, ascending (oldest first).
func (s *server) archiveGens() ([]int, error) {
	ents, err := os.ReadDir(filepath.Dir(s.snapshotPath))
	if err != nil {
		return nil, err
	}
	base := filepath.Base(s.snapshotPath) + "."
	var gens []int
	for _, de := range ents {
		suffix, ok := strings.CutPrefix(de.Name(), base)
		if !ok {
			continue
		}
		if g, err := strconv.Atoi(suffix); err == nil && g >= 1 {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// archiveSnapshot preserves the currently published snapshot under the next
// archive generation before a new checkpoint renames over it. A hard link
// suffices — published snapshots are immutable (checkpoints replace by
// rename, never rewrite). Retention of 1 keeps only the live snapshot.
func (s *server) archiveSnapshot() error {
	if s.snapshotRetain <= 1 {
		return nil
	}
	if _, err := os.Stat(s.snapshotPath); err != nil {
		if os.IsNotExist(err) {
			return nil // nothing published yet
		}
		return err
	}
	gens, err := s.archiveGens()
	if err != nil {
		return err
	}
	next := 1
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	return os.Link(s.snapshotPath, archiveName(s.snapshotPath, next))
}

// pruneArchives drops the oldest archives beyond the retention budget
// (snapshotRetain counts the live snapshot plus its archives) and fsyncs
// the directory so the unlinks are as durable as the rename that published
// the snapshot they made room for.
func (s *server) pruneArchives() error {
	gens, err := s.archiveGens()
	if err != nil {
		return err
	}
	keep := max(s.snapshotRetain-1, 0)
	if len(gens) <= keep {
		return nil
	}
	for _, g := range gens[:len(gens)-keep] {
		if err := os.Remove(archiveName(s.snapshotPath, g)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return wal.OSFS().SyncDir(filepath.Dir(s.snapshotPath))
}

// compactSegmentThreshold is the store segment count past which a
// successful checkpoint schedules a background compaction: every
// checkpoint appends one delta segment, so the store accretes segments
// (and superseded chunks) until a sweep folds them together.
const compactSegmentThreshold = 8

// maybeCompact schedules a background compaction when the store has
// accumulated enough delta segments. The worker serializes with
// checkpoints (checkpointMu): liveness is computed from the engine's
// current refs plus every retained manifest, and a checkpoint racing that
// computation could reference a blob the sweep already declared dead
// (Append dedupes against the index before the sweep unlinks it).
func (s *server) maybeCompact() {
	if s.store.SegmentCount() < compactSegmentThreshold {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		s.checkpointMu.Lock()
		defer s.checkpointMu.Unlock()
		if err := s.compactStore(); err != nil {
			fmt.Fprintf(os.Stderr, "castore compaction failed (will retry after a later checkpoint): %v\n", err)
		}
	}()
}

// compactStore merges the store's segments, keeping every blob referenced
// by the engine's live manifest state or by any retained snapshot file —
// archived manifests must stay restorable until retention prunes them. The
// live snapshot file is read only when the last checkpoint did not write
// it (manifestCurrent). Caller holds checkpointMu.
func (s *server) compactStore() error {
	live := s.p.LiveRefs()
	var paths []string
	if !s.manifestCurrent {
		paths = append(paths, s.snapshotPath)
	}
	gens, err := s.archiveGens()
	if err != nil {
		return err
	}
	for _, g := range gens {
		paths = append(paths, archiveName(s.snapshotPath, g))
	}
	// One read session across the manifests: their dataset chunks share
	// segments, and each segment decodes once.
	sess := s.store.Session()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		refs, err := core.CollectManifestRefs(f, sess)
		f.Close()
		if err != nil {
			return fmt.Errorf("manifest %s: %w", path, err)
		}
		for h := range refs {
			live[h] = true
		}
	}
	compacted, err := s.store.Compact(live)
	if err != nil {
		return err
	}
	if compacted {
		fmt.Printf("castore compacted: %d blob(s) in %d segment(s)\n",
			s.store.Len(), s.store.SegmentCount())
	}
	return nil
}

// maybeCheckpoint runs after each accepted ingest: once the journal has
// grown past the configured budget, checkpoint and truncate. Failures are
// reported but non-fatal — the ingest itself is already durable in the
// journal, and the next ingest retries the checkpoint.
func (s *server) maybeCheckpoint() {
	if s.wal == nil || s.snapshotPath == "" || s.checkpointBytes <= 0 {
		return
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	grown := s.wal.AppendedBytes()
	if grown < s.checkpointBytes {
		return
	}
	seq, err := s.checkpoint()
	if err != nil {
		fmt.Fprintf(os.Stderr, "auto-checkpoint failed (will retry next ingest): %v\n", err)
		return
	}
	fmt.Printf("auto-checkpoint: %d journal bytes folded into %s (seq %d)\n",
		grown, s.snapshotPath, seq)
}

// handleSnapshot checkpoints the engine: GET streams the last checkpoint
// as a snapshot bundle; POST writes a new one to the configured -snapshot
// path for the next warm restart. Both need -snapshot.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no -snapshot path configured"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		// GET must never run the engine's segmented Snapshot itself — that
		// path mutates (commits chunk logs, resets the dirty keys) and
		// belongs to Checkpoint.
		s.handleSnapshotBundle(w)
	case http.MethodPost:
		// Durable write-then-rename (fsync file + dir), and with a journal
		// attached the checkpoint also truncates it — an explicit POST is
		// the same operation as an auto-checkpoint.
		s.checkpointMu.Lock()
		seq, err := s.checkpoint()
		s.checkpointMu.Unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"snapshot": s.snapshotPath, "seq": seq})
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST required"))
	}
}

package main

// Serve mode turns the reproduction into the long-lived service the paper's
// collection layer implies (§II-B is continuous): the simulated world's
// timeline is partitioned into ingest batches, and an HTTP API drives the
// streaming engine — ingest the next batch, query the graph, read the
// (incrementally recomputed) Results — alongside the simulated PyPI registry
// and mirror endpoints the earlier serve mode exposed. A snapshot manifest
// over a content-addressed chunk store gives warm restarts: engine state
// (graph + embeddings + scan caches) reloads without an O(corpus) rebuild.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malgraph"
	"malgraph/internal/admission"
	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/registry"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
)

// server wraps a streaming pipeline with the ingest/query/results API.
type server struct {
	p            *malgraph.Pipeline
	snapshotPath string
	// wal is the attached write-ahead journal (nil without -wal). With a
	// snapshot path configured, the server auto-checkpoints once
	// checkpointBytes have been journaled since the last checkpoint, then
	// truncates the journal — bounding both replay time and journal size.
	wal             *wal.Log
	checkpointBytes int64
	checkpointMu    sync.Mutex

	// store is the content-addressed chunk store behind the segmented
	// checkpoints, set exactly when snapshotPath is: the snapshot file is a
	// small manifest, checkpoints write only the ingest delta, GET
	// /api/v1/snapshot streams manifest + segments, and checkpoints retain
	// the last snapshotRetain manifests (the archives keep their chunks
	// alive through compaction until retention prunes them).
	store          *castore.Store
	snapshotRetain int
	// compactWG tracks the background compaction worker so shutdown can
	// wait it out instead of exiting mid-sweep.
	compactWG sync.WaitGroup

	// adm gates every mutating (POST) request: a bounded in-flight
	// semaphore plus a memory-watermark shedder. Saturation answers 429
	// with a computed Retry-After; reads are never gated (they serve from
	// the published epoch, lock-free). nil disables the gate.
	adm *admission.Controller
	// maxBodyBytes caps every mutating request body via http.MaxBytesReader
	// — an unbounded json.Decode of an adversarial body is an OOM vector.
	// 0 disables the cap.
	maxBodyBytes int64
	// handlerTimeout bounds each mutating handler's context: a wedged
	// registry recovery or a stalled resolve cannot hold an admission slot
	// forever. 0 disables the per-handler deadline.
	handlerTimeout time.Duration

	// poisoned carries the first mutator panic's description. A panic that
	// escapes from inside a mutating handler may have left the engine
	// half-mutated; journal-before-apply makes recovery-by-restart sound,
	// so the server stops accepting writes (503), fails readiness, and
	// waits for the orchestrator to restart it — readers keep being served
	// from the last published (consistent) epoch.
	poisoned atomic.Pointer[string]
	// draining is set when graceful shutdown begins: readiness fails and
	// late writes on kept-alive connections are refused while in-flight
	// requests finish.
	draining atomic.Bool
	// preApply, when set, runs in every mutating handler just before the
	// pipeline apply, with the admission slot held — tests park a request
	// there or panic it mid-flight.
	preApply atomic.Pointer[func()]
}

// newServer wraps p. store is the chunk store p checkpoints into; it must
// be non-nil whenever snapshotPath is set.
func newServer(p *malgraph.Pipeline, snapshotPath string, store *castore.Store) *server {
	// The default admission gate and body cap mirror production serve
	// defaults so every test runs with the armor on.
	return &server{
		p: p, snapshotPath: snapshotPath, store: store,
		adm:            admission.New(admission.Config{MaxInflight: 64, MaxWait: time.Second}),
		maxBodyBytes:   32 << 20,
		snapshotRetain: 2,
	}
}

// poison records the first mutator panic and flips readiness; later
// panics keep the original diagnosis.
func (s *server) poison(reason string) {
	if s.poisoned.CompareAndSwap(nil, &reason) {
		fmt.Fprintf(os.Stderr, "pipeline poisoned: %s\n", reason)
	}
}

// poisonedReason returns the first mutator panic's description, "" when
// healthy.
func (s *server) poisonedReason() string {
	if r := s.poisoned.Load(); r != nil {
		return *r
	}
	return ""
}

// guard is the request armor around every handler: panics are contained
// per request (500, never a dead loader), and mutating POSTs additionally
// pass the poison/drain refusals, the admission gate (429 + Retry-After
// when shed), the body-size cap and the per-handler deadline. Reads take
// none of those branches — the read path stays a recover-only wrapper.
func (s *server) guard(mutating bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Method filtering happens inside handlers; only actual mutations
		// (POSTs on mutating routes — GET /api/v1/snapshot is a read) are
		// gated and can poison the pipeline.
		mutates := mutating && r.Method == http.MethodPost
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec) // the handler aborted deliberately; not ours
			}
			if mutates {
				s.poison(fmt.Sprintf("panic in %s %s: %v", r.Method, r.URL.Path, rec))
			}
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", rec))
		}()
		if !mutates {
			h(w, r)
			return
		}
		if reason := s.poisonedReason(); reason != "" {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("pipeline poisoned (%s); awaiting restart", reason))
			return
		}
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, errors.New("server draining for shutdown"))
			return
		}
		if s.adm != nil {
			release, err := s.adm.Acquire(r.Context())
			if err != nil {
				s.writeShed(w, err)
				return
			}
			defer release()
		}
		if s.maxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		if s.handlerTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.handlerTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// beforeApply runs the preApply hook, if one is set.
func (s *server) beforeApply() {
	if fn := s.preApply.Load(); fn != nil {
		(*fn)()
	}
}

// writeShed answers a shed mutating request: 429 with the admission
// controller's computed Retry-After for deliberate sheds, 503 when the
// client's own context expired while queueing.
func (s *server) writeShed(w http.ResponseWriter, err error) {
	if errors.Is(err, admission.ErrSaturated) || errors.Is(err, admission.ErrMemoryPressure) {
		secs := int(math.Ceil(s.adm.RetryAfter().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// decodeStatus maps a request-body decode failure to its HTTP status: a
// body over the -max-body-bytes cap is 413, anything else malformed is 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

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
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// checkpoint writes the snapshot durably and truncates the journal, both
// under the pipeline's ingest lock (Pipeline.Checkpoint) so no concurrent
// handler can journal a batch between the snapshot's sequence stamp and
// the truncation — truncating outside the lock could destroy an
// acknowledged record the snapshot does not contain. The order makes
// losing either step safe: the snapshot lands (stamped with the last
// applied sequence) before any journal bytes disappear, and a crash
// between the two just leaves records that replay as sequence-gated
// no-ops. Returns the sequence the snapshot covers.
func (s *server) checkpoint() (uint64, error) {
	seq, err := s.p.Checkpoint(func(snapshot func(io.Writer) error) error {
		if err := s.archiveSnapshot(); err != nil {
			return fmt.Errorf("archive snapshot: %w", err)
		}
		return writeFileAtomic(s.snapshotPath, snapshot)
	})
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
	keep := s.snapshotRetain - 1
	if keep < 0 {
		keep = 0
	}
	if len(gens) <= keep {
		return nil
	}
	for _, g := range gens[:len(gens)-keep] {
		if err := os.Remove(archiveName(s.snapshotPath, g)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	d, err := os.Open(filepath.Dir(s.snapshotPath))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
// archived manifests must stay restorable until retention prunes them.
// Caller holds checkpointMu.
func (s *server) compactStore() error {
	live := s.p.LiveRefs()
	paths := []string{s.snapshotPath}
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

// handler builds the full route table. Every route passes through guard:
// reads get panic containment only, mutating routes additionally get the
// poison/drain refusals, admission gate, body cap and handler deadline.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.guard(false, s.handleHealth))
	mux.HandleFunc("/readyz", s.guard(false, s.handleReady))
	mux.HandleFunc("/api/v1/ingest", s.guard(true, s.handleIngest))
	mux.HandleFunc("/api/v1/observations", s.guard(true, s.handleObservations))
	mux.HandleFunc("/api/v1/reports", s.guard(true, s.handleReports))
	mux.HandleFunc("/api/v1/results", s.guard(false, s.handleResults))
	mux.HandleFunc("/api/v1/stats", s.guard(false, s.handleStats))
	mux.HandleFunc("/api/v1/node", s.guard(false, s.handleNode))
	mux.HandleFunc("/api/v1/snapshot", s.guard(true, s.handleSnapshot))

	// The §II-B recovery setup over real HTTP: simulated PyPI root registry
	// and its mirror fleet.
	if root, ok := s.p.World.Fleet.Root(ecosys.PyPI); ok {
		mux.Handle("/root/", http.StripPrefix("/root", registry.NewServer(root)))
		for _, m := range s.p.World.Fleet.Mirrors(ecosys.PyPI) {
			prefix := "/mirror/" + m.Name()
			mux.Handle(prefix+"/", http.StripPrefix(prefix, registry.NewServer(m)))
		}
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"pending": s.p.PendingBatches(),
	})
}

// handleReady is the orchestrator's readiness probe, distinct from
// /healthz (liveness): the process can be alive but unfit for traffic.
// Readiness fails while poisoned (a mutator panic may have left the engine
// half-mutated — restart and recover from snapshot + journal), while
// draining for shutdown, and when the journal's tail state became unknown
// (sticky wal error). The 200 body carries the durable sequence, pending
// batches and admission stats for operators.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if reason := s.poisonedReason(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "poisoned", "reason": reason})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "journal-broken", "reason": err.Error()})
			return
		}
	}
	out := map[string]any{
		"status":  "ready",
		"pending": s.p.PendingBatches(),
		"seq":     s.p.LastSeq(),
	}
	if s.adm != nil {
		out["admission"] = s.adm.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// batchOut is the JSON rendering of one batch's core.IngestStats.
type batchOut struct {
	NewEntries      int      `json:"newEntries"`
	UpdatedEntries  int      `json:"updatedEntries"`
	NewArtifacts    int      `json:"newArtifacts"`
	NewReports      int      `json:"newReports"`
	Reclustered     []string `json:"reclustered,omitempty"`
	DuplicatedDelta int      `json:"duplicatedDelta"`
	DependencyDelta int      `json:"dependencyDelta"`
	SimilarDelta    int      `json:"similarDelta"`
	CoexistingDelta int      `json:"coexistingDelta"`
	// Re-cluster scope: of dirtyEcoItems artifacts in the touched
	// ecosystems, only artifactsReclustered (in partitionsReclustered LSH
	// partitions) actually re-clustered.
	PartitionsReclustered int `json:"partitionsReclustered,omitempty"`
	ArtifactsReclustered  int `json:"artifactsReclustered,omitempty"`
	DirtyEcoItems         int `json:"dirtyEcoItems,omitempty"`
	// Report-join scope: reportsRejoined previously joined reports were
	// re-joined (wanted-package arrivals, late reports), replacing
	// coexistingEdgesReplaced edges surgically; coexistingScoped reports
	// that the scoped re-join ran. duplicateReports counts re-delivered
	// report URLs (dropped), duplicateReportConflicts how many of those had
	// changed content.
	ReportsRejoined          int  `json:"reportsRejoined,omitempty"`
	CoexistingEdgesReplaced  int  `json:"coexistingEdgesReplaced,omitempty"`
	CoexistingScoped         bool `json:"coexistingScoped,omitempty"`
	DuplicateReports         int  `json:"duplicateReports,omitempty"`
	DuplicateReportConflicts int  `json:"duplicateReportConflicts,omitempty"`
}

func statsOut(st core.IngestStats) batchOut {
	out := batchOut{
		NewEntries:      st.NewEntries,
		UpdatedEntries:  st.UpdatedEntries,
		NewArtifacts:    st.NewArtifacts,
		NewReports:      st.NewReports,
		DuplicatedDelta: st.DuplicatedDelta,
		DependencyDelta: st.DependencyDelta,
		SimilarDelta:    st.SimilarDelta,
		CoexistingDelta: st.CoexistingDelta,

		PartitionsReclustered: st.PartitionsReclustered,
		ArtifactsReclustered:  st.ArtifactsReclustered,
		DirtyEcoItems:         st.DirtyEcoItems,

		ReportsRejoined:          st.ReportsRejoined,
		CoexistingEdgesReplaced:  st.CoexistingEdgesReplaced,
		CoexistingScoped:         st.CoexistingScoped,
		DuplicateReports:         st.DuplicateReports,
		DuplicateReportConflicts: st.DuplicateReportConflicts,
	}
	for _, eco := range st.Reclustered {
		out.Reclustered = append(out.Reclustered, eco.String())
	}
	return out
}

// handleIngest advances the feed: POST /api/v1/ingest ingests pending
// batches and returns their ingest stats, so a feed scheduler can
// poll-and-push exactly like the package-analysis loader loop.
//
// Contract:
//   - default (no parameter): at most one batch; 200 with "ingested": []
//     when the feed is already drained.
//   - ?all=1: every pending batch; 200 with "ingested": [] when none — an
//     idempotent drain loop can POST ?all=1 until "pending" reaches 0
//     without treating its final, empty iteration as an error.
//   - ?n=K: exactly K batches; 409 Conflict when fewer than K are pending
//     (nothing is ingested). 409 is reserved for these unsatisfiable
//     explicit requests.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	n, exact := 1, false
	if r.URL.Query().Get("all") != "" {
		n = -1 // drain
	} else if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n=%q", raw))
			return
		}
		n, exact = v, true
	}
	s.beforeApply()
	// AppendPending claims the batches atomically, so an explicit ?n=K
	// either ingests exactly K or conflicts — even against concurrent
	// ingesters. seq is the last applied batch's own durable sequence,
	// read under the append's lock — never a concurrent pusher's.
	stats, seq, ok, err := s.p.AppendPending(n, exact)
	ingested := make([]batchOut, 0, len(stats))
	for _, st := range stats {
		ingested = append(ingested, statsOut(st))
	}
	if err != nil {
		// Mid-loop failure: the batches in stats were journaled and applied
		// before the failure — durable, their feed positions consumed, never
		// re-delivered. Carry them in the error body so a drain loop can
		// account for what landed instead of losing their stats forever.
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":    err.Error(),
			"ingested": ingested,
			"pending":  s.p.PendingBatches(),
			"seq":      seq,
		})
		return
	}
	if !ok {
		writeError(w, http.StatusConflict,
			fmt.Errorf("n=%d batches requested, fewer pending", n))
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested": ingested,
		"pending":  s.p.PendingBatches(),
		"seq":      seq,
	})
}

// handleObservations is the external loader inlet: POST /api/v1/observations
// accepts raw source records ({"observations": [{source, coord, observedAt,
// artifact?}, ...]}), resolves them against the engine's dataset (mirror
// recovery through the configured registry view) and appends the resulting
// batch, journaling the body as received. The body must be exactly that one
// JSON value: member names match exactly, and bytes after the value are
// refused. Responses: 200 with the ingest stats; 400 for malformed input;
// 413 for a body over the cap; 502 when a registry endpoint transport-failed
// (nothing ingested — retry the batch); 500 for engine errors.
func (s *server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("read observations: %w", err))
		return
	}
	s.beforeApply()
	accepted, st, seq, err := s.p.AppendObservationsJSON(body)
	if err != nil {
		switch {
		case errors.Is(err, collect.ErrBadObservation):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, collect.ErrUnresolved):
			writeError(w, http.StatusBadGateway, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted": accepted,
		"stats":    statsOut(st),
		"entries":  s.p.Stats().Entries,
		"seq":      seq,
	})
}

// handleReports accepts externally published security reports: POST
// /api/v1/reports with {"reports": [{URL, Body, ...}, ...]}. Reports whose
// package list or IoC set is absent are parsed from their body, the §III-D
// path from raw page to structured report; documents naming no packages are
// skipped (they carry no co-existing evidence), mirroring the crawler's
// relevance filter.
func (s *server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req struct {
		Reports []*reports.Report `json:"reports"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode reports: %w", err))
		return
	}
	s.beforeApply()
	accepted := make([]*reports.Report, 0, len(req.Reports))
	skipped := 0
	for _, rep := range req.Reports {
		if rep == nil || rep.URL == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("report without URL"))
			return
		}
		if len(rep.Packages) == 0 {
			rep.Packages = reports.ExtractPackages(rep.Body)
		}
		if len(rep.IoCs.IPs)+len(rep.IoCs.URLs)+len(rep.IoCs.PowerShell) == 0 {
			rep.IoCs = reports.ExtractIoCs(rep.Body)
		}
		if len(rep.Packages) == 0 {
			skipped++
			continue
		}
		accepted = append(accepted, rep)
	}
	st, seq, err := s.p.AppendExternal(nil, accepted)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted": len(accepted),
		"skipped":  skipped,
		"stats":    statsOut(st),
		"seq":      seq,
	})
}

// handleResults serves the current epoch's Analyze — after a small ingest
// delta only the invalidated RQ blocks recompute, and the computation runs
// against the epoch's immutable view, never blocking (or blocked by) the
// loader. The response carries the epoch-derived ETag; a conditional GET
// whose tag still matches gets 304 Not-Modified without the results being
// recomputed or re-serialized.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	ep := s.p.CurrentEpoch()
	etag := ep.ETag()
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); etagMatches(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := ep.ResultsJSON()
	if err != nil {
		w.Header().Del("ETag")
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// etagMatches implements If-None-Match for the single weak tag the results
// endpoint issues: a wildcard or any listed tag equal to the current one
// (weak comparison — a W/ prefix on the client's copy is ignored).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Stats are precomputed at epoch publish time — the handler is a single
	// atomic load, untouched by however long the current ingest batch runs.
	ep := s.p.CurrentEpoch()
	st := ep.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"entries":        st.Entries,
		"available":      st.Available,
		"missingRate":    st.MissingRate,
		"reports":        st.Reports,
		"nodes":          st.Nodes,
		"edges":          st.Edges,
		"duplicated":     st.EdgesByType[graph.Duplicated.String()],
		"similar":        st.EdgesByType[graph.Similar.String()],
		"dependency":     st.EdgesByType[graph.Dependency.String()],
		"coexisting":     st.EdgesByType[graph.Coexisting.String()],
		"pendingBatches": st.PendingBatches,
		"epoch":          ep.ID(),
		"seq":            ep.Seq(),
	})
}

// handleNode resolves one graph node: GET /api/v1/node?id=PyPI/name@1.0.0
// returns its attributes and per-type neighbors.
func (s *server) handleNode(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("id parameter required"))
		return
	}
	n, neighbors, ok := s.p.Node(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("node %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        n.ID,
		"attrs":     n.Attrs,
		"neighbors": neighbors,
	})
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
		// path mutates (commits chunk logs, drops the graph journal) and
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

// The snapshot bundle is the GET /api/v1/snapshot wire format: a JSON
// header line naming the format, the manifest size and the segment count;
// the raw manifest bytes; then, per segment, a JSON frame line ({name,
// size}), the segment's raw bytes streamed straight from disk, and a JSON
// trailer line carrying the CRC-32 (IEEE) of those bytes. Only the header,
// frame and trailer lines are line-framed; the manifest and segment bodies
// are length-prefixed by them. Nothing is buffered whole: memory stays
// O(1) in store size on both ends.
const bundleFormat = "malgraph-snapshot-bundle/1"

type bundleHeader struct {
	Format       string `json:"format"`
	ManifestSize int    `json:"manifestSize"`
	Segments     int    `json:"segments"`
}

type bundleFrame struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

type bundleTrailer struct {
	CRC32 string `json:"crc32"`
}

// handleSnapshotBundle streams the current segmented checkpoint. The
// manifest comes from the snapshot file the last checkpoint published (the
// first GET before any checkpoint runs one); manifest read and segment
// opens happen under checkpointMu so a concurrent compaction cannot drop a
// chunk the manifest references — once the segment files are open, a later
// unlink does not revoke them. A failure after the header has been written
// aborts the connection; the client detects it through the framing and the
// per-segment CRCs.
func (s *server) handleSnapshotBundle(w http.ResponseWriter) {
	s.checkpointMu.Lock()
	if _, err := os.Stat(s.snapshotPath); os.IsNotExist(err) {
		if _, err := s.checkpoint(); err != nil {
			s.checkpointMu.Unlock()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	manifest, err := os.ReadFile(s.snapshotPath)
	if err == nil && (len(manifest) == 0 || manifest[len(manifest)-1] != '\n') {
		err = fmt.Errorf("snapshot %s is not a line-framed manifest", s.snapshotPath)
	}
	if err != nil {
		s.checkpointMu.Unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	files, err := s.store.OpenSegments()
	s.checkpointMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	w.Header().Set("Content-Type", "application/octet-stream")
	enc := json.NewEncoder(w)
	if err := enc.Encode(bundleHeader{Format: bundleFormat, ManifestSize: len(manifest), Segments: len(files)}); err != nil {
		return
	}
	if _, err := w.Write(manifest); err != nil {
		return
	}
	for _, f := range files {
		info, err := f.Stat()
		if err != nil {
			panic(http.ErrAbortHandler) // headers sent; cut the connection
		}
		if err := enc.Encode(bundleFrame{Name: filepath.Base(f.Name()), Size: info.Size()}); err != nil {
			return
		}
		crc := crc32.NewIEEE()
		if _, err := io.Copy(io.MultiWriter(w, crc), f); err != nil {
			return
		}
		if err := enc.Encode(bundleTrailer{CRC32: fmt.Sprintf("%08x", crc.Sum32())}); err != nil {
			return
		}
	}
}

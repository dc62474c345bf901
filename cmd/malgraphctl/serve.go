package main

// Serve mode turns the reproduction into the long-lived service the paper's
// collection layer implies (§II-B is continuous): the simulated world's
// timeline is partitioned into ingest batches, and an HTTP API drives the
// streaming engine — ingest the next batch, query the graph, read the
// (incrementally recomputed) Results — alongside the simulated PyPI registry
// and mirror endpoints the earlier serve mode exposed. A snapshot manifest
// over a content-addressed chunk store gives warm restarts: the restore
// replays the checkpointed dataset and reports as one Engine.Ingest, which
// rebuilds the graph and every index. This file holds the routes, the guard
// and the read handlers; the ingest handlers, checkpoints and bundle
// streaming live in serve_ingest.go, serve_checkpoint.go and serve_bundle.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malgraph"
	"malgraph/internal/admission"
	"malgraph/internal/castore"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/registry"
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
	// manifestCurrent is set by a successful checkpoint and cleared by a
	// failed one: only while it is set does the snapshot file name exactly
	// LiveRefs, so compactStore skips reading it. A persist that fails after
	// the engine committed its logs leaves an older manifest there that
	// alone names its chain. guarded by checkpointMu.
	manifestCurrent bool
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

// handleHealth is the orchestrator's liveness probe. Like /readyz it reads
// the published epoch, never the ingest lock: a drain or a stalled
// registry recovery holding the lock must not fail a live process's probe.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"pending": s.p.CurrentEpoch().Stats().PendingBatches,
	})
}

// handleReady is the orchestrator's readiness probe, distinct from
// /healthz (liveness): the process can be alive but unfit for traffic.
// Readiness fails while poisoned (a mutator panic may have left the engine
// half-mutated — restart and recover from snapshot + journal), while
// draining for shutdown, and when the journal's tail state became unknown
// (sticky wal error). The 200 body carries the published epoch's journal
// sequence and pending batches, and admission stats, for operators.
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
	ep := s.p.CurrentEpoch()
	out := map[string]any{
		"status":  "ready",
		"pending": ep.Stats().PendingBatches,
		"seq":     ep.Seq(),
	}
	if s.adm != nil {
		out["admission"] = s.adm.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
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

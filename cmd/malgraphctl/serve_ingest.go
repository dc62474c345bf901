package main

// The ingest handlers: the simulated feed (POST /api/v1/ingest), raw
// source observations (POST /api/v1/observations) and security reports
// (POST /api/v1/reports), each journaled before it is applied.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/reports"
)

// decodeStatus maps a request-body decode failure to its HTTP status: a
// body over the -max-body-bytes cap is 413, anything else malformed is 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
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
// relevance filter. The body must be exactly that one JSON value: bytes
// after it are refused with 400 before anything is journaled, and a body
// over the cap with 413.
func (s *server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("read reports: %w", err))
		return
	}
	var req struct {
		Reports []*reports.Report `json:"reports"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode reports: %w", err))
		return
	}
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

package main

// Tests for the external ingest path over real HTTP (ISSUE 3): the push
// client driving a serve instance must land the server on the same Results
// as draining the simulated feed and as a one-shot build — the full
// scheduler → loader → engine round-trip, batch-partition independent.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"malgraph"
	"malgraph/internal/collect"
	"malgraph/internal/reports"
)

// TestPushExternalMatchesFeedAndOneShot delivers the same world three ways:
// one-shot build, serve-mode feed drain, and `malgraphctl push` POSTing raw
// observations + reports over httptest — and requires bit-equal Results.
func TestPushExternalMatchesFeedAndOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.02
	oneShot, err := malgraph.BuildPipeline(context.Background(), malgraph.Config{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oneShot.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: simulated feed drained over HTTP.
	feedSrv, feedTS := newTestServer(t, 4, "")
	postJSON(t, feedTS.URL+"/api/v1/ingest?all=1", http.StatusOK)
	feedRes, err := feedSrv.p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, feedRes, want, "feed drain")

	// Path 3: push client against an un-drained server (feed untouched).
	pushSrv, pushTS := newTestServer(t, 1, "")
	client, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := collect.ObservationsFromSources(client.World.Sources)
	_, reportCorpus := client.Source()
	var log bytes.Buffer
	if err := pushAll(pushTS.Client(), pushTS.URL, obs, reportCorpus, 5, 1, &log); err != nil {
		t.Fatalf("push: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "push complete") {
		t.Fatalf("push log missing completion line:\n%s", log.String())
	}
	pushRes, err := pushSrv.p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, pushRes, want, "external push")
}

// assertSameResults compares Results field-wise for debuggability.
func assertSameResults(t *testing.T, got, want *malgraph.Results, label string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	tp := gv.Type()
	for i := 0; i < tp.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Results.%s differs:\n got %v\nwant %v",
				label, tp.Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Errorf("%s: Results differ in unexported state", label)
	}
}

// TestObservationsEndpointValidation covers the handler's error statuses.
func TestObservationsEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, 1, "")
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", got)
	}
	if got := post(`{"observations":[{"source":99,"coord":{"ecosystem":1,"name":"x","version":"1"}}]}`); got != http.StatusBadRequest {
		t.Fatalf("unknown source: status %d", got)
	}
	if got := post(`{"observations":[]}`); got != http.StatusOK {
		t.Fatalf("empty batch: status %d", got)
	}
	// GET not allowed.
	resp, err := http.Get(ts.URL + "/api/v1/observations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observations: status %d", resp.StatusCode)
	}
}

// TestReportsEndpoint exercises body parsing: a report document without a
// pre-parsed package list is extracted from its body, and package-less
// documents are skipped.
func TestReportsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 1, "")
	postJSON(t, ts.URL+"/api/v1/ingest?all=1", http.StatusOK)
	before := len(s.p.Engine.Reports())

	nodeID := firstCanonicalNode(t)
	// nodeID is "PyPI/name@version"; rebuild the body mention.
	eco := nodeID[:strings.Index(nodeID, "/")]
	rest := nodeID[strings.Index(nodeID, "/")+1:]
	name, version := rest[:strings.Index(rest, "@")], rest[strings.Index(rest, "@")+1:]
	body := fmt.Sprintf("We discovered the package `%s` version `%s` in the %s registry.\n", name, version, eco)

	payload, _ := json.Marshal(map[string]any{"reports": []map[string]any{
		{"URL": "https://blog.example/ext-report-1", "Body": body},
		{"URL": "https://blog.example/ext-report-2", "Body": "nothing to see here"},
	}})
	resp, err := http.Post(ts.URL+"/api/v1/reports", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST reports: status %d", resp.StatusCode)
	}
	var out struct {
		Accepted int `json:"accepted"`
		Skipped  int `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || out.Skipped != 1 {
		t.Fatalf("accepted=%d skipped=%d, want 1/1", out.Accepted, out.Skipped)
	}
	if got := len(s.p.Engine.Reports()); got != before+1 {
		t.Fatalf("report corpus %d, want %d", got, before+1)
	}
}

// FuzzServeReportsBody drives arbitrary bodies through POST
// /api/v1/reports, the guard included, against one drained server per
// fuzz worker: no input may panic the handler (which would poison the
// pipeline), and a body that decodes as the handler decodes it may be
// refused but never answered with a 5xx. Besides the seeds in
// testdata/fuzz/FuzzServeReportsBody, two of the world's own reports are
// added as they are and under a new URL.
func FuzzServeReportsBody(f *testing.F) {
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 1)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, _, err := p.AppendPending(-1, false); err != nil {
		f.Fatal(err)
	}
	_, reps := p.Source()
	moved := *reps[0]
	moved.URL = "https://blog.example/moved"
	for _, rs := range [][]*reports.Report{reps[:2], {&moved}} {
		seed, err := json.Marshal(map[string]any{"reports": rs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	s := newServer(p, "", nil)
	h := s.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/reports", bytes.NewReader(body)))
		if reason := s.poisonedReason(); reason != "" {
			t.Fatalf("pipeline poisoned: %s (body %q)", reason, body)
		}
		var req struct {
			Reports []*reports.Report `json:"reports"`
		}
		if json.Unmarshal(body, &req) == nil && rec.Code >= 500 {
			t.Fatalf("status %d for a body that decodes: %s (body %q)", rec.Code, rec.Body.Bytes(), body)
		}
	})
}

// TestConcurrentObservationsIngestAndQueries hammers the API from many
// goroutines — external observation batches, feed drains, report posts and
// reads — and checks the server converges on the one-shot corpus shape.
// Run under -race this validates the locking of the whole ingest surface.
func TestConcurrentObservationsIngestAndQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	s, ts := newTestServer(t, 4, "")
	client, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := collect.ObservationsFromSources(client.World.Sources)
	_, reportCorpus := client.Source()
	hc := ts.Client()

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	// Observation pushers: overlapping slices, so the same coordinates race.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := 4
			for i := 0; i < k; i++ {
				lo, hi := i*len(obs)/k, (i+1)*len(obs)/k
				if err := postJSONBody(hc, ts.URL+"/api/v1/observations",
					map[string]any{"observations": obs[lo:hi]}, nil); err != nil {
					fail <- fmt.Errorf("pusher %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	// Report pusher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := postJSONBody(hc, ts.URL+"/api/v1/reports",
			map[string]any{"reports": reportCorpus}, nil); err != nil {
			fail <- fmt.Errorf("reports: %w", err)
		}
	}()
	// Feed drainer: idempotent loop per the new contract.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := postJSONBody(hc, ts.URL+"/api/v1/ingest?all=1", map[string]any{}, nil); err != nil {
				fail <- fmt.Errorf("drain: %w", err)
				return
			}
		}
	}()
	// Readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := getStats(hc, ts.URL); err != nil {
					fail <- fmt.Errorf("stats: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}

	// The corpus shape must converge on the one-shot world regardless of
	// interleaving (accounting aggregates are exact under the mix too, but
	// graph shape is the cheap invariant to assert here).
	oneShot, err := malgraph.BuildPipeline(context.Background(), malgraph.Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	st := s.p.Stats()
	if st.Entries != len(oneShot.Engine.Dataset().Entries) {
		t.Fatalf("entries = %d, want %d", st.Entries, len(oneShot.Engine.Dataset().Entries))
	}
	if st.Nodes != oneShot.Engine.Graph().G.NodeCount() || st.Edges != oneShot.Engine.Graph().G.EdgeCount() {
		t.Fatalf("graph %d/%d nodes/edges, want %d/%d",
			st.Nodes, st.Edges, oneShot.Engine.Graph().G.NodeCount(), oneShot.Engine.Graph().G.EdgeCount())
	}
	if pending := s.p.PendingBatches(); pending != 0 {
		t.Fatalf("feed not drained: %d pending", pending)
	}
}

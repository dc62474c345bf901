package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"malgraph"
	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/wal"
)

// newTestServer serves a fresh 0.02-scale streaming pipeline. With a
// snapshotPath it checkpoints into a chunk store at the default
// <snapshot>.store, as cmdServe does.
func newTestServer(t *testing.T, batches int, snapshotPath string) (*server, *httptest.Server) {
	t.Helper()
	if snapshotPath != "" {
		return newStoreTestServer(t, batches, snapshotPath, openStore(t, defaultStoreDir(snapshotPath), nil))
	}
	return startTestServer(t, newServer(newTestPipeline(t, batches), "", nil))
}

// newStoreTestServer serves a fresh streaming pipeline that checkpoints to
// snapshotPath through store.
func newStoreTestServer(t *testing.T, batches int, snapshotPath string, store *castore.Store) (*server, *httptest.Server) {
	t.Helper()
	p := newTestPipeline(t, batches)
	p.AttachStore(store)
	return startTestServer(t, newServer(p, snapshotPath, store))
}

func newTestPipeline(t *testing.T, batches int) *malgraph.Pipeline {
	t.Helper()
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, batches)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startTestServer(t *testing.T, s *server) (*server, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func openStore(t *testing.T, dir string, fs wal.FS) *castore.Store {
	t.Helper()
	st, err := castore.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func postJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return out
}

func TestServeIngestQueryResults(t *testing.T) {
	_, ts := newTestServer(t, 3, "")

	// Health reports the pending feed.
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["status"] != "ok" || health["pending"].(float64) != 3 {
		t.Fatalf("health = %v", health)
	}

	// Before any ingest the graph is empty, and its results (every
	// distribution empty) still answer.
	stats := getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK)
	if stats["nodes"].(float64) != 0 || stats["pendingBatches"].(float64) != 3 {
		t.Fatalf("pre-ingest stats = %v", stats)
	}
	if fresh := getJSON(t, ts.URL+"/api/v1/results", http.StatusOK); fresh["TotalPackages"].(float64) != 0 {
		t.Fatalf("pre-ingest results = %v", fresh["TotalPackages"])
	}

	// Ingest one batch, then drain.
	one := postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	if one["pending"].(float64) != 2 {
		t.Fatalf("after one ingest: %v", one)
	}
	if n := len(one["ingested"].([]any)); n != 1 {
		t.Fatalf("ingested %d batches", n)
	}
	// An explicit n beyond the pending count is unsatisfiable: 409, and
	// nothing is ingested.
	postJSON(t, ts.URL+"/api/v1/ingest?n=99", http.StatusConflict)
	if pending := getJSON(t, ts.URL+"/healthz", http.StatusOK)["pending"].(float64); pending != 2 {
		t.Fatalf("pending after unsatisfiable n-request = %v", pending)
	}
	rest := postJSON(t, ts.URL+"/api/v1/ingest?all=1", http.StatusOK)
	if rest["pending"].(float64) != 0 {
		t.Fatalf("after drain: %v", rest)
	}
	// Drained feed: the idempotent poll-and-push contract — a plain POST and
	// a drain POST both return 200 with an empty ingested list, so a drain
	// loop's final iteration is not an error.
	for _, url := range []string{ts.URL + "/api/v1/ingest", ts.URL + "/api/v1/ingest?all=1"} {
		empty := postJSON(t, url, http.StatusOK)
		if n := len(empty["ingested"].([]any)); n != 0 {
			t.Fatalf("drained POST %s ingested %d batches", url, n)
		}
	}
	// 409 is reserved for explicit n-requests that cannot be satisfied.
	postJSON(t, ts.URL+"/api/v1/ingest?n=1", http.StatusConflict)
	// GET is not allowed.
	getJSON(t, ts.URL+"/api/v1/ingest", http.StatusMethodNotAllowed)
	// Without -snapshot there is no checkpoint to read or write.
	getJSON(t, ts.URL+"/api/v1/snapshot", http.StatusBadRequest)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusBadRequest)

	// Stats now show the full corpus; results render all tables.
	stats = getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK)
	if stats["nodes"].(float64) == 0 || stats["edges"].(float64) == 0 {
		t.Fatalf("post-ingest stats = %v", stats)
	}
	results := getJSON(t, ts.URL+"/api/v1/results", http.StatusOK)
	if results["TotalPackages"].(float64) == 0 || results["GraphEdges"].(float64) == 0 {
		t.Fatalf("results = %v", results["TotalPackages"])
	}
	if len(results["SourceSizes"].([]any)) != 10 {
		t.Fatal("results missing Table I rows")
	}

	// Node query round-trip: pick a node from the graph.
	nodeID := firstCanonicalNode(t)
	node := getJSON(t, ts.URL+"/api/v1/node?id="+nodeID, http.StatusOK)
	if node["id"] != nodeID {
		t.Fatalf("node = %v", node)
	}
	getJSON(t, ts.URL+"/api/v1/node?id=nope", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/node", http.StatusBadRequest)

	// Registry endpoints ride along.
	resp, err := http.Get(ts.URL + "/root/api/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		t.Fatal("registry endpoint missing")
	}
}

// warmRestart performs cmdServe's startup restore: the snapshot at
// snapshotPath restores through the default store while the world builds,
// then the pipeline adopts it (or attaches the store cold).
func warmRestart(t *testing.T, batches int, snapshotPath string) *malgraph.Pipeline {
	t.Helper()
	finishRestart := startWarmRestart(snapshotPath, openStore(t, defaultStoreDir(snapshotPath), nil))
	p := newTestPipeline(t, batches)
	if _, err := finishRestart(p); err != nil {
		t.Fatalf("restore %s: %v", snapshotPath, err)
	}
	return p
}

// firstCanonicalNode returns a node ID guaranteed to exist in any 0.02-scale
// world (the world is a pure function of seed+scale, so a separate pipeline
// sees the same corpus the server ingested).
func firstCanonicalNode(t *testing.T) string {
	t.Helper()
	p, err := malgraph.BuildPipeline(context.Background(), malgraph.Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Engine.Dataset().Entries) == 0 {
		t.Fatal("no entries")
	}
	return p.Engine.Dataset().Entries[0].Coord.Key()
}

// TestServeResultsConditionalGet drives /api/v1/results revalidation over
// the handler with the seed-1, scale-0.05 observation stream: the tag a GET
// returns answers 304 to If-None-Match (also as the wildcard, inside a tag
// list, or in either weak form), still does after a no-op push, and
// answers 200 with a new tag after a changing push.
func TestServeResultsConditionalGet(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Seed: 1, Scale: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, newServer(p, "", nil))
	obs := collect.ObservationsFromSources(p.World.Sources)
	half := obs[:len(obs)/2]
	push := func(batch []collect.Observation) {
		t.Helper()
		if err := postJSONBody(ts.Client(), ts.URL+"/api/v1/observations", map[string]any{"observations": batch}, nil); err != nil {
			t.Fatal(err)
		}
	}
	get := func(ifNoneMatch string, wantStatus int) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/results", nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET results (If-None-Match %q): status %d, want %d", ifNoneMatch, resp.StatusCode, wantStatus)
		}
		return resp.Header.Get("ETag")
	}

	push(half)
	tag := get("", http.StatusOK)
	if tag == "" {
		t.Fatal("results carry no ETag")
	}
	get(tag, http.StatusNotModified)
	// If-None-Match forms beyond the exact tag: the wildcard, a tag list
	// (with or without spaces), and weak comparison either way round — the
	// issued tag is W/-prefixed, so a client copy without the prefix still
	// matches. A list naming only other tags does not.
	bare := strings.TrimPrefix(tag, "W/")
	for _, h := range []string{"*", " * ", `"other", ` + tag, `"other",` + bare, bare, "W/" + bare} {
		get(h, http.StatusNotModified)
	}
	for _, h := range []string{`"other"`, `W/"other", W/"epoch-x"`, "W/" + bare + "x"} {
		get(h, http.StatusOK)
	}
	push(half) // no-op: same tag
	if got := get(tag, http.StatusNotModified); got != tag {
		t.Fatalf("no-op push moved the ETag: %s → %s", tag, got)
	}
	push(obs[len(obs)/2:])
	if got := get(tag, http.StatusOK); got == tag {
		t.Fatalf("changing push kept the ETag %s", tag)
	}
}

func TestServeSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "engine.json")
	s, ts := newTestServer(t, 2, snapPath)

	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	snapResp := postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	if snapResp["snapshot"] != snapPath {
		t.Fatalf("snapshot response = %v", snapResp)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	wantNodes := s.p.Engine.Graph().G.NodeCount()
	wantEdges := s.p.Engine.Graph().G.EdgeCount()

	// Warm restart: fresh pipeline, restore, drain the remaining feed.
	p2 := warmRestart(t, 2, snapPath)
	if p2.Engine.Graph().G.NodeCount() != wantNodes || p2.Engine.Graph().G.EdgeCount() != wantEdges {
		t.Fatalf("restored graph %d/%d nodes/edges, want %d/%d",
			p2.Engine.Graph().G.NodeCount(), p2.Engine.Graph().G.EdgeCount(), wantNodes, wantEdges)
	}
	// Replay the whole feed: batch 1 is an idempotent no-op, batch 2 new.
	for {
		_, ok, err := p2.AppendNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Final state must match the original server fully drained.
	postJSON(t, ts.URL+"/api/v1/ingest?all=1", http.StatusOK)
	if p2.Engine.Graph().G.NodeCount() != s.p.Engine.Graph().G.NodeCount() ||
		p2.Engine.Graph().G.EdgeCount() != s.p.Engine.Graph().G.EdgeCount() {
		t.Fatalf("warm-restarted graph diverged: %d/%d vs %d/%d nodes/edges",
			p2.Engine.Graph().G.NodeCount(), p2.Engine.Graph().G.EdgeCount(),
			s.p.Engine.Graph().G.NodeCount(), s.p.Engine.Graph().G.EdgeCount())
	}
	res1, err := p2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s.p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res1.TotalPackages != res2.TotalPackages || res1.GraphEdges != res2.GraphEdges ||
		res1.SimilarEdges != res2.SimilarEdges || res1.TotalMR != res2.TotalMR {
		t.Fatalf("warm-restarted results diverged: %+v vs %+v", res1, res2)
	}
	// Table I/V sum the entries' accounting — the replayed feed batch must
	// not double-count it.
	if !reflect.DeepEqual(res1.SourceSizes, res2.SourceSizes) {
		t.Fatalf("warm-restarted source sizes diverged:\n %v\n %v", res1.SourceSizes, res2.SourceSizes)
	}
	if !reflect.DeepEqual(res1.MissingRates, res2.MissingRates) {
		t.Fatalf("warm-restarted missing rates diverged")
	}
}

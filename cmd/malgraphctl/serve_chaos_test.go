package main

// Chaos suite (ISSUE 9): storm the admission gate past its limit, panic a
// mutator mid-flight, stall a request body, SIGTERM the server mid-ingest —
// and prove the overload/lifecycle armor answers each one without losing an
// acknowledged byte: 429s carry Retry-After, a poisoned pipeline fails
// readiness while reads keep serving, and a drain-and-checkpoint shutdown
// restarts into exactly the state an uninterrupted run would have reached.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"malgraph"
	"malgraph/internal/admission"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/faultinject"
	"malgraph/internal/registry"
)

// postRaw POSTs body and returns (status, decoded JSON, Retry-After header).
func postRaw(t *testing.T, url, body string, r io.Reader) (int, map[string]any, string) {
	t.Helper()
	if r == nil {
		r = strings.NewReader(body)
	}
	resp, err := http.Post(url, "application/json", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, resp.Header.Get("Retry-After")
}

// hookedRoute is the route hookedHandler adds.
const hookedRoute = "/test/hooked-ingest"

// hookedHandler serves s's routes plus hookedRoute, where a test parks a
// request or panics it mid-flight: a POST there runs fn and then the ingest
// handler, behind the same guard(true, …) as every mutating route, so fn
// runs with the admission slot held.
func hookedHandler(s *server, fn func()) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.handler())
	mux.HandleFunc(hookedRoute, s.guard(true, func(w http.ResponseWriter, r *http.Request) {
		fn()
		s.handleIngest(w, r)
	}))
	return mux
}

// parking returns a hook that parks every request until release is called,
// and a channel closed when the first request parks. release is
// idempotent.
func parking() (hook func(), entered <-chan struct{}, release func()) {
	in := make(chan struct{})
	out := make(chan struct{})
	var once, releaseOnce sync.Once
	release = func() { releaseOnce.Do(func() { close(out) }) }
	return func() {
		once.Do(func() { close(in) })
		<-out
	}, in, release
}

func TestAdmissionShedsWritesServesReads(t *testing.T) {
	s := newServer(newTestPipeline(t, 3), "", nil)
	// One slot, no queueing: the second concurrent write sheds immediately.
	s.adm = admission.New(admission.Config{MaxInflight: 1, MaxWait: 0})
	hook, entered, releaseAll := parking()
	ts := httptest.NewServer(hookedHandler(s, hook))
	t.Cleanup(ts.Close)
	// Unpark the holder even if an assertion below fails first — a parked
	// handler would deadlock the cleanup Close registered before this.
	t.Cleanup(releaseAll)

	// One clean ingest first, so reads-under-saturation have a published
	// epoch with content to serve.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)

	// The slot-holder: blocks inside the mutator with the admission slot held.
	holderDone := make(chan map[string]any, 1)
	go func() {
		_, out, _ := postRaw(t, ts.URL+hookedRoute, "", nil)
		holderDone <- out
	}()
	<-entered

	// Storm past the limit: every further write sheds with 429 + Retry-After.
	for i := 0; i < 3; i++ {
		status, _, retryAfter := postRaw(t, ts.URL+"/api/v1/observations",
			`{"observations":[]}`, nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("shed write %d: status %d, want 429", i, status)
		}
		if retryAfter == "" {
			t.Fatalf("shed write %d: no Retry-After header", i)
		}
	}

	// Reads bypass the gate entirely: served from the published epoch while
	// the write path is saturated.
	if st := getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK); st["nodes"] == nil {
		t.Fatalf("stats during saturation: %v", st)
	}
	getJSON(t, ts.URL+"/api/v1/results", http.StatusOK)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	ready := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if ready["status"] != "ready" || ready["admission"] == nil {
		t.Fatalf("readyz during saturation: %v", ready)
	}

	// Release the holder: its ingest completes and the gate reopens.
	releaseAll()
	if out := <-holderDone; out["pending"].(float64) != 1 {
		t.Fatalf("holder ingest: %v", out)
	}
	status, _, _ := postRaw(t, ts.URL+"/api/v1/observations", `{"observations":[]}`, nil)
	if status == http.StatusTooManyRequests {
		t.Fatal("gate still saturated after release")
	}
}

func TestServePanicPoisonsReadiness(t *testing.T) {
	s := newServer(newTestPipeline(t, 3), "", nil)
	ts := httptest.NewServer(hookedHandler(s, func() { panic("chaos: injected mutator panic") }))
	t.Cleanup(ts.Close)

	ready := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if ready["status"] != "ready" {
		t.Fatalf("pre-poison readyz: %v", ready)
	}
	// Publish an epoch with content: post-poison reads must keep serving it.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)

	status, body, _ := postRaw(t, ts.URL+hookedRoute, "", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking mutator: status %d, want 500 (body %v)", status, body)
	}

	// The pipeline is poisoned: readiness fails so an orchestrator restarts
	// the process, and further writes are refused...
	ready = getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	if ready["status"] != "poisoned" || !strings.Contains(ready["reason"].(string), "injected mutator panic") {
		t.Fatalf("post-poison readyz: %v", ready)
	}
	if status, _, _ := postRaw(t, ts.URL+"/api/v1/ingest", "", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("write on poisoned pipeline: status %d, want 503", status)
	}
	// ...but liveness holds and reads keep serving the last published epoch.
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK)
	getJSON(t, ts.URL+"/api/v1/results", http.StatusOK)
	if s.poisonedReason() == "" {
		t.Fatal("poisoned reason lost")
	}

	// A read-path panic is contained per request and does NOT poison.
	s2, ts2 := newTestServer(t, 3, "")
	read := s2.guard(false, func(http.ResponseWriter, *http.Request) { panic("chaos: injected read panic") })
	rec := httptest.NewRecorder()
	read(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking read: status %d, want 500", rec.Code)
	}
	if s2.poisonedReason() != "" {
		t.Fatal("read path poisoned the pipeline")
	}
	postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
}

func TestServeDrainingRefusesWrites(t *testing.T) {
	s, ts := newTestServer(t, 3, "")
	s.draining.Store(true)
	if status, _, _ := postRaw(t, ts.URL+"/api/v1/ingest", "", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("write while draining: status %d, want 503", status)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/api/v1/stats", http.StatusOK)
}

func TestServeBodyLimitAnswers413(t *testing.T) {
	s, ts := newTestServer(t, 3, "")
	s.maxBodyBytes = 64
	big := `{"observations":[` + strings.Repeat(`{"source":"x"},`, 64) + `{"source":"x"}]}`
	if status, _, _ := postRaw(t, ts.URL+"/api/v1/observations", big, nil); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", status)
	}
	bigReports := `{"reports":[` + strings.Repeat(`{"url":"x"},`, 64) + `{"url":"x"}]}`
	if status, _, _ := postRaw(t, ts.URL+"/api/v1/reports", bigReports, nil); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reports body: status %d, want 413", status)
	}
	// Under the cap still works.
	if status, _, _ := postRaw(t, ts.URL+"/api/v1/observations", `{"observations":[]}`, nil); status == http.StatusRequestEntityTooLarge {
		t.Fatal("small body rejected by the cap")
	}
}

func TestServeStalledBodyBoundedByReadTimeout(t *testing.T) {
	// The read deadline must be configured before the listener starts, as
	// cmdServe does with -io-timeout.
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(newServer(p, "", nil).handler())
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// A slow-loris body: valid JSON delivered one byte per 50ms — minutes of
	// wall clock unless the server's read deadline cuts it off.
	body := `{"observations":[]}` + strings.Repeat(" ", 256)
	slow := faultinject.SlowReader(strings.NewReader(body), 1, 50*time.Millisecond)
	start := time.Now()
	resp, err := client.Post(ts.URL+"/api/v1/observations", "application/json", slow)
	elapsed := time.Since(start)
	if err == nil {
		// Some paths surface as a 4xx decode failure instead of a cut
		// connection; either way the handler must not have waited the body out.
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("stalled body was waited out to success")
		}
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled request held the server %v; read deadline did not bite", elapsed)
	}
	// The server survived the stall.
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
}

func TestServeSIGTERMMidIngestLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")

	// Generation 1: journaled server on a real listener behind the full
	// lifecycle, exactly as cmdServe wires it.
	p1, j1 := recoverPipeline(t, 4, snapshotPath, walDir)
	s1 := newServer(p1, snapshotPath, p1.Store())
	s1.wal = j1
	s1.checkpointBytes = 1 << 30 // only the shutdown checkpoint may run
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// An ingest on the hooked route parks mid-flight, holding the mutator
	// when SIGTERM lands.
	hook, entered, releaseAll := parking()
	t.Cleanup(releaseAll) // never leave the drain waiting on a parked handler
	lc := &lifecycle{
		srv:          s1,
		main:         &http.Server{Handler: hookedHandler(s1, hook)},
		drainTimeout: 10 * time.Second,
		out:          io.Discard,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	type ack struct {
		status int
		body   map[string]any
	}
	acked := make(chan ack, 1)
	go func() {
		status, out, _ := postRaw(t, base+hookedRoute, "", nil)
		acked <- ack{status, out}
	}()
	<-entered

	// SIGTERM mid-ingest: a real signal through the real handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The drain must wait for the parked ingest, not cut it off.
	deadline := time.Now().Add(5 * time.Second)
	for !s1.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining never started after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-runErr:
		t.Fatal("shutdown completed while an ingest was still in flight")
	case a := <-acked:
		t.Fatalf("in-flight ingest terminated by drain: %+v", a)
	default:
	}
	releaseAll()

	a := <-acked
	if a.status != http.StatusOK || a.body["seq"].(float64) != 1 {
		t.Fatalf("drained ingest not acknowledged: %+v", a)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("lifecycle.Run: %v", err)
	}
	// The shutdown checkpoint folded the journal into the snapshot.
	if _, err := os.Stat(snapshotPath); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	wantStats := p1.Stats()

	// Generation 2: restart recovers exactly the drained state.
	p2, j2 := recoverPipeline(t, 4, snapshotPath, walDir)
	defer j2.Close()
	if p2.LastSeq() != 1 {
		t.Fatalf("recovered seq %d, want 1 (the acknowledged ingest)", p2.LastSeq())
	}
	if got := p2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("recovered stats %+v\nwant drained %+v", got, wantStats)
	}

	// And the drained state equals an uninterrupted run's: same world, one
	// batch ingested with no signal in the middle.
	pRef, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := pRef.AppendPending(1, false); err != nil || !ok {
		t.Fatalf("reference ingest: %v %v", err, ok)
	}
	if got := p2.Stats(); !reflect.DeepEqual(got, pRef.Stats()) {
		t.Fatalf("recovered stats %+v\nwant uninterrupted %+v", got, pRef.Stats())
	}
}

// parkedView is a registry view whose Recover runs park before answering
// from the wrapped view: a registry recovery that hangs until released.
type parkedView struct {
	registry.View
	park func()
}

func (v parkedView) Recover(coord ecosys.Coord, at time.Time) (*ecosys.Artifact, string, error) {
	v.park()
	return v.View.Recover(coord, at)
}

// TestProbesAnswerWhileIngestHoldsLock: /healthz and /readyz read the
// published epoch, so an observations push parked inside the pipeline lock
// on a hung registry recovery stalls neither probe — an orchestrator would
// otherwise restart a live process.
func TestProbesAnswerWhileIngestHoldsLock(t *testing.T) {
	p := newTestPipeline(t, 3)
	park, entered, release := parking()
	defer release()
	p.SetExternalView(parkedView{View: p.World.Fleet, park: park})
	_, ts := startTestServer(t, newServer(p, "", nil))

	body, err := json.Marshal(map[string]any{"observations": collect.ObservationsFromSources(p.World.Sources)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/v1/observations", "application/json", bytes.NewReader(body))
		if err != nil {
			pushed <- 0
			return
		}
		resp.Body.Close()
		pushed <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the push never reached the registry")
	}

	hc := &http.Client{Timeout: time.Second}
	for _, path := range []string{"/healthz", "/readyz"} {
		start := time.Now()
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while a push holds the ingest lock: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if d := time.Since(start); d >= time.Second {
			t.Fatalf("GET %s took %v, want under 1s", path, d)
		}
	}
	release()
	if code := <-pushed; code != http.StatusOK {
		t.Fatalf("released push: status %d, want 200", code)
	}
}

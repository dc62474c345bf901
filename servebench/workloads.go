package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runCfg is one benchmark invocation.
type runCfg struct {
	bin     string // malgraphctl binary
	work    string // scratch directory for serve state and logs
	seed    uint64
	scale   float64
	seconds float64
	trace   bool
	batches int // pushes the observation stream is cut into
}

// run accumulates one workload's measurements.
type run struct {
	rc  runCfg
	in  *inputs
	tr  *tracer // nil unless tracing
	srv *serveProc

	attempted, failed atomic.Int64
	// lastStatIssued is when (since the reader's t0) the newest answered
	// stats read was issued.
	lastStatIssued atomic.Int64
	mu             sync.Mutex
	problems       []string // correctness mismatches and failed requests

	setups, firstResults, checkpoints, restarts, rss samples // ms; rss in MiB
	acks, reads, fresh, reportAcks, late, builds     samples
	obsPerSec                                        samples
	bundleMs, bundleMB                               samples
	walDisk, storeDisk                               int64         // bytes on disk before the final checkpoint / after it
	preload                                          time.Duration // analyst_poll's untimed first-half push, part of set-up
	readyz                                           []admissionSample
	ingestStats                                      []map[string]any
	pushed                                           []batch
	extra                                            map[string]any
}

type admissionSample struct {
	Inflight int `json:"inflight"`
	Waiters  int `json:"waiters"`
}

func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call is one request over conn hc. It counts toward attempted, and toward
// failed on a transport error or a status other than 2xx/304. Traced runs
// record it as a span under parent.
func (r *run) call(hc *http.Client, parent int, method, path string, body []byte, hdr map[string]string) (httpResult, error) {
	r.attempted.Add(1)
	res, err := do(hc, method, r.srv.base+path, body, hdr)
	if err == nil {
		err = res.ok(method, path)
	}
	if err != nil {
		r.failed.Add(1)
		r.problem("%v", err)
	}
	route, _, _ := strings.Cut(path, "?")
	r.tr.record("http "+method+" "+route, parent, res.start, res.end)
	return res, err
}

// check counts one correctness comparison; a mismatch fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.problem("mismatch: "+format, args...)
	}
}

type dirs struct{ root, wal, store, snap, log string }

func (r *run) freshDirs(name string) (dirs, error) {
	root := filepath.Join(r.rc.work, name)
	if err := os.RemoveAll(root); err != nil {
		return dirs{}, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return dirs{}, err
	}
	return dirs{root: root, wal: filepath.Join(root, "wal"), store: filepath.Join(root, "store"),
		snap: filepath.Join(root, "snapshot.json"), log: filepath.Join(root, "serve.log")}, nil
}

// serveArgs passes serve only the world seed and scale plus its state
// directories; extra carries workload-specific serve flags.
func (r *run) serveArgs(d dirs, extra ...string) []string {
	args := []string{
		"-seed", strconv.FormatUint(r.rc.seed, 10),
		"-scale", strconv.FormatFloat(r.rc.scale, 'g', -1, 64),
		"-wal", d.wal, "-store", d.store, "-snapshot", d.snap,
	}
	return append(args, extra...)
}

// start execs serve on d and records its start-up time.
func (r *run) start(d dirs, args []string) error {
	srv, err := startServe(r.rc.bin, d.log, args)
	if err != nil {
		return err
	}
	r.srv = srv
	r.setups.add(srv.startup)
	return nil
}

// throwawayStarts starts and kills serve n times on empty state, adding
// n more start-up samples so setup_s is a median, not one sample.
func (r *run) throwawayStarts(name string, n int) error {
	for i := 0; i < n; i++ {
		d, err := r.freshDirs(fmt.Sprintf("%s-setup%d", name, i))
		if err != nil {
			return err
		}
		if err := r.start(d, r.serveArgs(d)); err != nil {
			return err
		}
		r.srv.kill()
		if err := os.RemoveAll(d.root); err != nil {
			return err
		}
	}
	return nil
}

// reader is the second connection: it loops over its request mix until
// stop is closed, then finishes its current request.
type reader struct {
	hc   *http.Client
	stop chan struct{}
	done chan struct{}
}

func startReader(loop func(hc *http.Client, stop <-chan struct{})) *reader {
	rd := &reader{hc: newConn(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rd.done)
		loop(rd.hc, rd.stop)
	}()
	return rd
}

func (rd *reader) halt() {
	close(rd.stop)
	<-rd.done
	rd.hc.CloseIdleConnections()
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// readerRound paces the stats/node reader: a round is due every
// readerRound, and one that falls behind goes out at once. Rounds spaced
// in time sample the server's latency evenly over the run; a reader that
// spun back-to-back would take most of its samples while the server is
// idle, and would hold one CPU of a 2-CPU host doing so.
const readerRound = 2 * time.Millisecond

// statRead is one /api/v1/stats response: when its GET was issued and
// answered (since t0) and the durable sequence it showed.
type statRead struct {
	read
	seq uint64
}

// statsNodeLoop is the ingest-time reader: GET /api/v1/stats, then GET
// /api/v1/node for a coordinate whose observation was already
// acknowledged, one round per readerRound. Stats must never go backwards.
// Traced runs also sample /readyz every tenth round for the admission
// gate's state. It returns every stats read for freshness attribution.
func (r *run) statsNodeLoop(t0 time.Time, acked *atomic.Int64, ids func(int) []string, hc *http.Client, stop <-chan struct{}) []statRead {
	rng := rand.New(rand.NewSource(int64(r.rc.seed)))
	var lastEntries, lastSeq float64
	var mine samples
	var seen []statRead
	defer func() {
		r.mu.Lock()
		r.reads = append(r.reads, mine...)
		r.mu.Unlock()
	}()
	start := time.Now()
	for round := 0; !stopped(stop); round++ {
		if wait := time.Duration(round)*readerRound - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res, err := r.call(hc, 0, http.MethodGet, "/api/v1/stats", nil, nil)
		if err != nil {
			continue
		}
		mine.add(res.end.Sub(res.start))
		var st statsDoc
		if err := json.Unmarshal(res.body, &st); err != nil {
			r.check(false, "stats body: %v", err)
			continue
		}
		e, _ := st["entries"].(float64)
		s, _ := st["seq"].(float64)
		if e < lastEntries || s < lastSeq {
			r.check(false, "stats went backwards: entries %v→%v seq %v→%v", lastEntries, e, lastSeq, s)
		}
		lastEntries, lastSeq = e, s
		seen = append(seen, statRead{read{issued: res.start.Sub(t0), done: res.end.Sub(t0)}, uint64(s)})
		r.lastStatIssued.Store(int64(res.start.Sub(t0)))
		if n := int(acked.Load()); n > 0 {
			cands := ids(rng.Intn(n))
			id := cands[rng.Intn(len(cands))]
			res, err := r.call(hc, 0, http.MethodGet, "/api/v1/node?id="+url.QueryEscape(id), nil, nil)
			if err == nil {
				mine.add(res.end.Sub(res.start))
				var nd struct {
					ID string `json:"id"`
				}
				if json.Unmarshal(res.body, &nd) != nil || nd.ID != id {
					r.check(false, "node %s answered for %q", id, nd.ID)
				}
			}
		}
		if r.tr != nil && round%10 == 0 {
			r.sampleReadyz(hc)
		}
	}
	return seen
}

func (r *run) sampleReadyz(hc *http.Client) {
	res, err := r.call(hc, 0, http.MethodGet, "/readyz", nil, nil)
	if err != nil {
		return
	}
	var doc struct {
		Admission admissionSample `json:"admission"`
	}
	if json.Unmarshal(res.body, &doc) == nil {
		r.mu.Lock()
		r.readyz = append(r.readyz, doc.Admission)
		r.mu.Unlock()
	}
}

// pushBatch POSTs one batch's observations, then its reports, and returns
// the observation ack's timing. due is when the push was scheduled.
func (r *run) pushBatch(hc *http.Client, i int, b batch, due time.Duration, t0 time.Time) (push, error) {
	op := r.tr.start("push "+strconv.Itoa(i), 0)
	defer r.tr.finish(op)
	res, err := r.call(hc, op, http.MethodPost, "/api/v1/observations", b.obsBody, nil)
	if err != nil {
		return push{}, err
	}
	p := push{due: due, sent: res.start.Sub(t0), acked: res.end.Sub(t0)}
	var ack struct {
		Accepted int            `json:"accepted"`
		Seq      *uint64        `json:"seq"`
		Stats    map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(res.body, &ack); err != nil || ack.Seq == nil || ack.Accepted != len(b.obs) {
		r.check(false, "observation ack %d: accepted %d of %d, seq present %v (%v)", i, ack.Accepted, len(b.obs), ack.Seq != nil, err)
	} else {
		p.seq = *ack.Seq
	}
	if r.tr != nil {
		r.ingestStats = append(r.ingestStats, ack.Stats)
	}
	if b.repBody != nil {
		rres, err := r.call(hc, op, http.MethodPost, "/api/v1/reports", b.repBody, nil)
		if err != nil {
			return p, err
		}
		r.reportAcks.add(rres.end.Sub(rres.start))
	}
	r.pushed = append(r.pushed, b)
	return p, nil
}

// pushAll pushes bs back-to-back and returns the wall time.
func (r *run) pushAll(hc *http.Client, bs []batch) (time.Duration, error) {
	t0 := time.Now()
	for i, b := range bs {
		if _, err := r.pushBatch(hc, i, b, time.Since(t0), t0); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// statsDoc is the GET /api/v1/stats body.
type statsDoc map[string]any

func (r *run) stats(hc *http.Client) (statsDoc, error) {
	res, err := r.call(hc, 0, http.MethodGet, "/api/v1/stats", nil, nil)
	if err != nil {
		return nil, err
	}
	var st statsDoc
	if err := json.Unmarshal(res.body, &st); err != nil {
		r.check(false, "stats body: %v", err)
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return st, nil
}

// getResults GETs /api/v1/results (conditional when etag is set).
func (r *run) getResults(hc *http.Client, etag string) (httpResult, error) {
	var hdr map[string]string
	if etag != "" {
		hdr = map[string]string{"If-None-Match": etag}
	}
	return r.call(hc, 0, http.MethodGet, "/api/v1/results", nil, hdr)
}

// crashRestart is the common tail of every workload: POST a checkpoint,
// capture /stats and peak RSS, optionally stream the snapshot bundle,
// SIGKILL serve, restart it on the same state, and require the restarted
// server's /stats and /results bytes to equal the pre-kill ones.
func (r *run) crashRestart(hc *http.Client, d dirs, args []string, results []byte, bundle bool) (statsDoc, error) {
	r.walDisk = dirBytes(d.wal)
	res, err := r.call(hc, 0, http.MethodPost, "/api/v1/snapshot", nil, nil)
	if err != nil {
		return nil, err
	}
	r.checkpoints.add(res.end.Sub(res.start))
	if bundle {
		res, err := r.call(hc, 0, http.MethodGet, "/api/v1/snapshot", nil, nil)
		if err != nil {
			return nil, err
		}
		var hdr struct {
			Format string `json:"format"`
		}
		line, _, _ := bytes.Cut(res.body, []byte("\n"))
		r.check(json.Unmarshal(line, &hdr) == nil && hdr.Format != "", "snapshot bundle header %.80q", line)
		r.bundleMs.add(res.end.Sub(res.start))
		r.bundleMB = append(r.bundleMB, float64(len(res.body))/(1<<20))
	}
	before, err := r.stats(hc)
	if err != nil {
		return nil, err
	}
	if mb, err := r.srv.peakRSSMB(); err == nil {
		r.rss = append(r.rss, mb)
	}
	r.storeDisk = dirBytes(d.store)
	hc.CloseIdleConnections()
	r.srv.kill()

	srv, err := startServe(r.rc.bin, d.log, args)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	r.srv = srv
	r.restarts.add(srv.startup)
	after, err := r.stats(hc)
	if err != nil {
		return nil, err
	}
	for k, v := range before {
		if k != "epoch" {
			r.check(fmt.Sprint(after[k]) == fmt.Sprint(v), "restart changed stats %s: %v → %v", k, v, after[k])
		}
	}
	post, err := r.getResults(hc, "")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(post.body, results) {
		r.compareResults(results, post.body)
	}
	return before, nil
}

// compareResults explains a post-restart /results byte difference. The
// restarted process re-crawls the report web, so CrawledPages can differ
// through the crawler's worker-order defect alone; that is flagged in the
// record, never passed silently. Any other field that differs fails the run.
func (r *run) compareResults(before, after []byte) {
	var a, b map[string]json.RawMessage
	if json.Unmarshal(before, &a) != nil || json.Unmarshal(after, &b) != nil {
		r.check(false, "restart changed /results (%d → %d bytes)", len(before), len(after))
		return
	}
	var diff []string
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	if len(diff) == 1 && diff[0] == "CrawledPages" {
		r.extra["restart_crawled_pages"] = fmt.Sprintf("%s → %s", a["CrawledPages"], b["CrawledPages"])
		fmt.Fprintf(os.Stderr, "servebench: restarted serve re-crawled %s pages instead of %s (crawl worker-order defect)\n",
			b["CrawledPages"], a["CrawledPages"])
		return
	}
	r.check(false, "restart changed /results fields %v", diff)
}

// visibility is freshness through /api/v1/stats: for each push, the
// first stats read issued after its ack must already show its sequence
// (every mutator publishes its epoch before answering), and due → that
// read's response is the push's freshness sample.
func (r *run) visibility(pushes []push, stats []statRead) samples {
	reads := make([]read, len(stats))
	for i, s := range stats {
		reads[i] = s.read
	}
	for _, p := range pushes {
		i := sort.Search(len(stats), func(i int) bool { return stats[i].issued >= p.acked })
		if i < len(stats) {
			r.check(stats[i].seq >= p.seq, "stats read after the ack of seq %d showed seq %d", p.seq, stats[i].seq)
		}
	}
	return freshness(pushes, reads)
}

// verifyReference requires the pushed inputs, ingested in-process with one
// AppendExternal, to produce exactly the served shape.
func (r *run) verifyReference(served statsDoc) error {
	ref, err := r.in.referenceStats(r.pushed)
	if err != nil {
		return err
	}
	diffs := compareStats(served, ref)
	r.check(len(diffs) == 0, "served stats differ from the in-process reference: %v", diffs)
	return nil
}

// ingestBurst: closed loop, write-heavy. A fresh serve with the default
// auto-checkpoint budget takes the whole observation stream back-to-back
// (each batch followed by its slice of reports) while the reader loops over
// stats and node reads. Nobody reads /results until the stream is in.
func ingestBurst(r *run) error {
	if err := r.throwawayStarts("ingest_burst", 2); err != nil {
		return err
	}
	d, err := r.freshDirs("ingest_burst")
	if err != nil {
		return err
	}
	args := r.serveArgs(d)
	if err := r.start(d, args); err != nil {
		return err
	}
	defer func() { r.srv.kill() }()

	var acked atomic.Int64
	ids := func(i int) []string { return r.in.batches[i].nodeIDs }
	t0 := time.Now()
	var stats []statRead
	rd := startReader(func(hc *http.Client, stop <-chan struct{}) { stats = r.statsNodeLoop(t0, &acked, ids, hc, stop) })
	pc := newConn()
	budget := time.Duration(r.rc.seconds * float64(time.Second))
	var pushes []push
	var obsAcked int
	for i, b := range r.in.batches {
		if time.Since(t0) > budget {
			r.extra["truncated_at_batch"] = i
			break
		}
		p, err := r.pushBatch(pc, i, b, time.Since(t0), t0)
		if err != nil {
			rd.halt()
			return err
		}
		pushes = append(pushes, p)
		obsAcked += len(b.obs)
		acked.Store(int64(i + 1))
	}
	wall := pushes[len(pushes)-1].acked
	// Keep reading until a stats read issued after the last ack is in, so
	// every push has a visibility sample.
	for deadline := time.Now().Add(10 * time.Second); r.lastStatIssued.Load() < int64(wall) && time.Now().Before(deadline); {
		time.Sleep(readerRound)
	}
	rd.halt()
	for _, p := range pushes {
		r.acks = append(r.acks, ms(p.acked-p.due))
	}
	r.obsPerSec = append(r.obsPerSec, float64(obsAcked)/wall.Seconds())
	r.fresh = r.visibility(pushes, stats)

	// Nobody read /results during the stream: the first read computes
	// every block the stream dirtied.
	res, err := r.getResults(pc, "")
	if err != nil {
		return err
	}
	r.firstResults.add(res.end.Sub(res.start))

	before, err := r.crashRestart(pc, d, args, res.body, r.tr != nil)
	if err != nil {
		return err
	}
	r.srv.kill()
	return r.verifyReference(before)
}

// openLoopRate is analyst_poll's push rate in batches per second, one the
// seed commit sustains at 0.5 scale on a 2-CPU host with the results
// reader busy, without a growing backlog.
const openLoopRate = 4.0

// pollInterval paces analyst_poll's reader: a poll is due every
// pollInterval, and one that falls behind goes out at once. A reader that
// spun on 304s back-to-back would hold one CPU of a 2-CPU host doing
// nothing and make every other figure depend on the scheduler.
const pollInterval = 20 * time.Millisecond

// openLoopSchedule returns n send times at openLoopRate, each shifted
// later by up to a quarter interval drawn from seed, so the pushes do not
// lock into one phase against the reader's recompute cycle.
func openLoopSchedule(seed uint64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed)))
	interval := float64(time.Second) / openLoopRate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(interval * (float64(i) + rng.Float64()/4))
	}
	return out
}

// analystPoll: open loop, read-heavy. Set-up preloads the first half of
// the stream at full speed; the timed phase pushes the second half on an
// openLoopRate schedule (as much of it as --seconds holds) while the
// reader polls /results with If-None-Match every pollInterval.
func analystPoll(r *run) error {
	if err := r.throwawayStarts("analyst_poll", 2); err != nil {
		return err
	}
	d, err := r.freshDirs("analyst_poll")
	if err != nil {
		return err
	}
	args := r.serveArgs(d)
	if err := r.start(d, args); err != nil {
		return err
	}
	defer func() { r.srv.kill() }()

	half := len(r.in.batches) / 2
	pc := newConn()
	if r.preload, err = r.pushAll(pc, r.in.batches[:half]); err != nil {
		return err
	}
	first, err := r.getResults(pc, "")
	if err != nil {
		return err
	}
	r.firstResults.add(first.end.Sub(first.start))

	timed := r.in.batches[half:]
	timed = timed[:min(len(timed), max(1, int(openLoopRate*r.rc.seconds)))]
	interval := time.Duration(float64(time.Second) / openLoopRate)
	schedule := openLoopSchedule(r.rc.seed, len(timed))
	r.extra["open_loop_rate_batches_per_s"] = openLoopRate
	r.extra["open_loop_batches"] = len(timed)

	t0 := time.Now()
	var finalAck atomic.Int64 // ns since t0 of the last ack; 0 while pushing
	var polls []read
	var notModified samples
	rd := startReader(func(hc *http.Client, stop <-chan struct{}) {
		etag := first.etag
		for k := 0; ; k++ {
			if wait := time.Duration(k)*pollInterval - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			issued := time.Since(t0)
			res, err := r.getResults(hc, etag)
			if err != nil {
				if stopped(stop) {
					return
				}
				continue
			}
			if res.status == http.StatusOK {
				etag = res.etag
			}
			polls = append(polls, read{issued: issued, done: res.end.Sub(t0)})
			if res.status == http.StatusOK {
				r.reads.add(res.end.Sub(res.start))
			} else {
				notModified.add(res.end.Sub(res.start))
			}
			if r.tr != nil && len(polls)%10 == 0 {
				r.sampleReadyz(hc)
			}
			// Stop only once a read issued after the final ack has landed,
			// so the last push has a freshness sample too.
			if fa := finalAck.Load(); fa > 0 && issued >= time.Duration(fa) {
				return
			}
		}
	})
	var pushes []push
	obs := 0
	for i, b := range timed {
		due := schedule[i]
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		p, err := r.pushBatch(pc, half+i, b, due, t0)
		if err != nil {
			finalAck.Store(int64(time.Since(t0)))
			rd.halt()
			return err
		}
		pushes = append(pushes, p)
		obs += len(b.obs)
	}
	last := pushes[len(pushes)-1]
	finalAck.Store(int64(last.acked))
	<-rd.done
	rd.hc.CloseIdleConnections()

	for _, p := range pushes {
		r.acks = append(r.acks, ms(p.acked-p.due))
	}
	r.extra["results_304s"] = len(notModified)
	r.extra["results_304_p50_ms"] = median(notModified)
	r.late = lateness(pushes)
	r.extra["over_capacity"] = backlogged(r.late, interval)
	r.obsPerSec = append(r.obsPerSec, float64(obs)/last.acked.Seconds())
	r.fresh = freshness(pushes, polls)

	final, err := r.getResults(pc, "")
	if err != nil {
		return err
	}
	before, err := r.crashRestart(pc, d, args, final.body, r.tr != nil)
	if err != nil {
		return err
	}
	r.srv.kill()
	return r.verifyReference(before)
}

// coldRestart: batch and recovery. Each cycle starts `serve -batches 1
// -checkpoint-bytes 0` on empty state and, over one connection, drains the
// feed in one POST (a one-shot build), reads the all-dirty /results, takes
// the first full checkpoint, streams the snapshot bundle, then SIGKILLs
// serve and restarts it on the same state. The reader loops over stats and
// node reads throughout. The run makes coldCycles cycles and reports
// medians.
func coldRestart(r *run) error {
	allIDs := make([]string, 0, len(r.in.obs))
	for _, b := range r.in.batches {
		allIDs = append(allIDs, b.nodeIDs...)
	}
	for c := 0; c < coldCycles; c++ {
		if err := coldCycle(r, c, allIDs); err != nil {
			return err
		}
	}
	r.extra["cycles"] = len(r.builds)
	return nil
}

const coldCycles = 5

func coldCycle(r *run, c int, allIDs []string) error {
	d, err := r.freshDirs(fmt.Sprintf("cold_restart-%d", c))
	if err != nil {
		return err
	}
	args := r.serveArgs(d, "-batches", "1", "-checkpoint-bytes", "0")
	if err := r.start(d, args); err != nil {
		return err
	}
	defer func() { r.srv.kill() }()

	var acked atomic.Int64
	rd := startReader(func(hc *http.Client, stop <-chan struct{}) {
		r.statsNodeLoop(time.Now(), &acked, func(int) []string { return allIDs }, hc, stop)
	})
	pc := newConn()
	op := r.tr.start("cycle "+strconv.Itoa(c), 0)
	drain, err := r.call(pc, op, http.MethodPost, "/api/v1/ingest?all=1", nil, nil)
	if err != nil {
		r.tr.finish(op)
		rd.halt()
		return err
	}
	acked.Store(1)
	build := drain.end.Sub(drain.start)
	r.builds.add(build)
	r.acks.add(build)
	r.obsPerSec = append(r.obsPerSec, float64(len(r.in.obs))/build.Seconds())
	var body struct {
		Ingested []map[string]any `json:"ingested"`
		Pending  int              `json:"pending"`
	}
	r.check(json.Unmarshal(drain.body, &body) == nil && len(body.Ingested) == 1 && body.Pending == 0,
		"drain answered %.120q", drain.body)
	if len(body.Ingested) == 1 && r.tr != nil {
		r.ingestStats = append(r.ingestStats, body.Ingested[0])
	}
	res, err := r.getResults(pc, "")
	r.tr.finish(op)
	if err != nil {
		rd.halt()
		return err
	}
	r.firstResults.add(res.end.Sub(res.start))
	r.fresh = append(r.fresh, ms(res.end.Sub(drain.start)))
	rd.halt()

	before, err := r.crashRestart(pc, d, args, res.body, true)
	if err != nil {
		return err
	}
	if rep, ok := before["reports"].(float64); ok && int(rep) != r.in.shape.ModalRep {
		r.extra[fmt.Sprintf("cycle%d_serve_reports_deviate", c)] = rep
	}
	return nil
}

// Package faultinject provides scriptable failpoints for the durability
// and chaos tests: a wal.FS wrapper that can fail (or tear) the Nth write
// and fail the Nth fsync, an http.RoundTripper that can fail the next N
// requests with either a transport error or a chosen status code, and a
// SlowReader that models a stalled slow-loris client body. The
// crash-matrix, retry and overload suites drive these to prove recovery,
// backoff and containment behaviour without touching real hardware fault
// paths.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"malgraph/internal/wal"
)

// ErrInjected marks every fault this package raises, so tests can assert
// the failure they saw was the one they scripted.
var ErrInjected = errors.New("faultinject: injected fault")

// FS wraps a wal.FS, counting writes and syncs across every file opened
// through it and failing the scripted ones.
type FS struct {
	mu    sync.Mutex
	inner wal.FS

	writes, syncs int // completed + failed so far

	failWriteAt int // 1-based write ordinal to fail; 0 = disabled
	tornBytes   int // bytes of the failed write to let through (torn record)
	failSyncAt  int // 1-based sync ordinal to fail; 0 = disabled
}

// NewFS wraps inner (the real filesystem when nil).
func NewFS(inner wal.FS) *FS {
	if inner == nil {
		inner = wal.OSFS()
	}
	return &FS{inner: inner}
}

// FailWrite schedules the nth future write (1-based from now) to fail
// after letting tornBytes of it reach the file — 0 tears the record off
// entirely, a positive value leaves a half-written record behind.
func (f *FS) FailWrite(nth, tornBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWriteAt = f.writes + nth
	f.tornBytes = tornBytes
}

// FailSync schedules the nth future fsync (1-based from now) to fail.
func (f *FS) FailSync(nth int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncAt = f.syncs + nth
}

// Writes returns the number of file writes attempted so far.
func (f *FS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Syncs returns the number of file fsyncs attempted so far.
func (f *FS) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// MkdirAll implements wal.FS.
func (f *FS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// SyncDir implements wal.FS.
func (f *FS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// OpenFile implements wal.FS, wrapping the file with the failpoint hooks.
func (f *FS) OpenFile(name string) (wal.File, error) {
	inner, err := f.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

type file struct {
	fs    *FS
	inner wal.File
}

func (w *file) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	w.fs.writes++
	inject := w.fs.failWriteAt != 0 && w.fs.writes == w.fs.failWriteAt
	torn := w.fs.tornBytes
	w.fs.mu.Unlock()
	if inject {
		if torn > len(p) {
			torn = len(p)
		}
		if torn > 0 {
			// Let a prefix through: a torn record on disk, like power
			// loss mid-write.
			if _, err := w.inner.Write(p[:torn]); err != nil {
				return 0, err
			}
		}
		return torn, fmt.Errorf("%w: write %d torn after %d bytes", ErrInjected, w.fs.failWriteAt, torn)
	}
	return w.inner.Write(p)
}

func (w *file) Sync() error {
	w.fs.mu.Lock()
	w.fs.syncs++
	inject := w.fs.failSyncAt != 0 && w.fs.syncs == w.fs.failSyncAt
	n := w.fs.syncs
	w.fs.mu.Unlock()
	if inject {
		return fmt.Errorf("%w: sync %d failed", ErrInjected, n)
	}
	return w.inner.Sync()
}

func (w *file) Read(p []byte) (int, error)                { return w.inner.Read(p) }
func (w *file) Close() error                              { return w.inner.Close() }
func (w *file) Truncate(size int64) error                 { return w.inner.Truncate(size) }
func (w *file) Seek(off int64, whence int) (int64, error) { return w.inner.Seek(off, whence) }

var _ wal.FS = (*FS)(nil)

// Transport wraps an http.RoundTripper with an error-then-succeed
// failpoint: the next N matching requests fail, either with a transport
// error (status 0) or a synthesized HTTP response carrying the given
// status, then traffic flows through untouched.
type Transport struct {
	mu       sync.Mutex
	inner    http.RoundTripper
	failNext int
	status   int
	match    func(*http.Request) bool
	attempts int
	injected int
}

// NewTransport wraps inner (http.DefaultTransport when nil).
func NewTransport(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner}
}

// FailNext makes the next n matching requests fail. status 0 raises a
// transport error; any other value answers with that HTTP status.
func (t *Transport) FailNext(n, status int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failNext = n
	t.status = status
}

// Match restricts the failpoint to requests the predicate accepts (all
// requests when unset).
func (t *Transport) Match(fn func(*http.Request) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.match = fn
}

// Attempts returns how many matching requests were seen (failed or not).
func (t *Transport) Attempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

// Injected returns how many requests were failed by the failpoint.
func (t *Transport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	matched := t.match == nil || t.match(req)
	var inject bool
	var status int
	if matched {
		t.attempts++
		if t.failNext > 0 {
			t.failNext--
			t.injected++
			inject = true
			status = t.status
		}
	}
	t.mu.Unlock()
	if !matched || !inject {
		return t.inner.RoundTrip(req)
	}
	if status == 0 {
		return nil, fmt.Errorf("%w: transport error for %s", ErrInjected, req.URL)
	}
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  make(http.Header),
		Body:    io.NopCloser(strings.NewReader("injected fault")),
		Request: req,
	}, nil
}

var _ http.RoundTripper = (*Transport)(nil)

// SlowReader wraps r so every Read returns at most chunk bytes and sleeps
// delay first — a scriptable slow-loris client: the request body arrives,
// but so slowly that only server-side read deadlines can bound it.
func SlowReader(r io.Reader, chunk int, delay time.Duration) io.Reader {
	if chunk < 1 {
		chunk = 1
	}
	return &slowReader{r: r, chunk: chunk, delay: delay}
}

type slowReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.delay)
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.r.Read(p)
}

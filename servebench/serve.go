package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveProc is one running `malgraphctl serve` child.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	args   []string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	// startup is the time from exec to the first 200 from /readyz.
	startup time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServe execs bin with `serve <args> -addr 127.0.0.1:<port>` and waits
// until /readyz answers 200. The child's output goes to logPath. A port
// stolen between freePort and the child's listen is retried on a new port.
func startServe(bin, logPath string, args []string) (*serveProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startServeOnce(bin, logPath, args)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func startServeOnce(bin, logPath string, args []string) (*serveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	full := append([]string{"serve"}, args...)
	full = append(full, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &serveProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), args: full, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() { s.err = cmd.Wait(); close(s.exited) }()

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := start.Add(150 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("serve exited before ready (%v): %s", s.err, lastLines(string(tail), 3))
		default:
		}
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.startup = time.Since(start)
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.kill()
	return nil, errors.New("serve not ready within 150s")
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// kill SIGKILLs the child and waits for it to be reaped.
func (s *serveProc) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (s *serveProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newConn returns a client pinned to a single TCP connection: the load
// generator drives serve over at most two (one pusher, one reader).
func newConn() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// httpResult is one exchange: status, body and the client-side interval.
type httpResult struct {
	status     int
	body       []byte
	etag       string
	start, end time.Time
}

func do(hc *http.Client, method, url string, body []byte, hdr map[string]string) (httpResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return httpResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	r := httpResult{start: time.Now()}
	resp, err := hc.Do(req)
	if err != nil {
		r.end = time.Now()
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status = resp.StatusCode
	r.etag = resp.Header.Get("ETag")
	if err != nil {
		return r, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return r, nil
}

// ok reports a successful exchange (2xx, or 304 to a conditional GET);
// other statuses become errors that carry the server's message.
func (r httpResult) ok(method, url string) error {
	if r.status/100 == 2 || r.status == http.StatusNotModified {
		return nil
	}
	return fmt.Errorf("%s %s: status %d: %s", method, url, r.status, bytes.TrimSpace(r.body))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

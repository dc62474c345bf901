package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/retry"
)

// Server exposes a registry-like endpoint (root or mirror) over HTTP so the
// collection pipeline can exercise real network fetches. The wire protocol:
//
//	GET /api/v1/package?name=N&version=V&t=RFC3339  -> artifact JSON or 404
//	GET /api/v1/release?name=N&version=V            -> release JSON or 404
//	GET /api/v1/info                                -> {name, ecosystem}
type Server struct {
	endpoint Endpoint
	mux      *http.ServeMux
}

// Endpoint abstracts what Server serves: both *Registry and *Mirror satisfy
// it (registries additionally expose release metadata).
type Endpoint interface {
	Name() string
	Ecosystem() ecosys.Ecosystem
	Fetch(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, error)
}

var (
	_ Endpoint = (*Registry)(nil)
	_ Endpoint = (*Mirror)(nil)
)

// NewServer wraps an endpoint in an HTTP handler.
func NewServer(e Endpoint) *Server {
	s := &Server{endpoint: e, mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/v1/package", s.handlePackage)
	s.mux.HandleFunc("/api/v1/release", s.handleRelease)
	s.mux.HandleFunc("/api/v1/info", s.handleInfo)
	return s
}

var _ http.Handler = (*Server)(nil)

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) coordFromQuery(q url.Values) ecosys.Coord {
	return ecosys.Coord{
		Ecosystem: s.endpoint.Ecosystem(),
		Name:      q.Get("name"),
		Version:   q.Get("version"),
	}
}

func parseTime(q url.Values) (time.Time, error) {
	raw := q.Get("t")
	if raw == "" {
		return time.Now().UTC(), nil
	}
	return time.Parse(time.RFC3339, raw)
}

func (s *Server) handlePackage(w http.ResponseWriter, r *http.Request) {
	t, err := parseTime(r.URL.Query())
	if err != nil {
		http.Error(w, "bad t parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	coord := s.coordFromQuery(r.URL.Query())
	art, err := s.endpoint.Fetch(coord, t)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, art)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.endpoint.(*Registry)
	if !ok {
		http.Error(w, "release metadata only served by root registries", http.StatusNotImplemented)
		return
	}
	coord := s.coordFromQuery(r.URL.Query())
	rel, ok := reg.Release(coord)
	if !ok {
		http.Error(w, "unknown coordinate", http.StatusNotFound)
		return
	}
	writeJSON(w, rel)
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{
		"name":      s.endpoint.Name(),
		"ecosystem": s.endpoint.Ecosystem().String(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client fetches packages from a remote registry Server. Every request
// carries a context deadline — a hung mirror times out instead of stalling
// an ingest forever — and transport errors and 5xx answers are retried
// with bounded exponential backoff. Definitive answers (200, 404) are
// never retried, so the ErrNotFound takedown signal stays exact.
type Client struct {
	base    string
	http    *http.Client
	eco     ecosys.Ecosystem
	name    string
	timeout time.Duration
	retry   retry.Policy
}

// ClientOption tunes a Client at construction.
type ClientOption func(*Client)

// WithTimeout sets the per-request deadline (default 30s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetry replaces the backoff policy (default retry.Default()).
func WithRetry(p retry.Policy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// NewClient connects to a registry server at baseURL and reads its identity.
func NewClient(baseURL string, hc *http.Client, opts ...ClientOption) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: baseURL, http: hc, timeout: 30 * time.Second, retry: retry.Default()}
	for _, opt := range opts {
		opt(c)
	}
	var info struct {
		Name      string `json:"name"`
		Ecosystem string `json:"ecosystem"`
	}
	if status, err := c.getJSON("/api/v1/info", nil, &info); err != nil {
		return nil, fmt.Errorf("registry client info: %w", err)
	} else if status != http.StatusOK {
		return nil, fmt.Errorf("registry client info: status %d", status)
	}
	c.name = info.Name
	for _, e := range ecosys.All() {
		if e.String() == info.Ecosystem {
			c.eco = e
			break
		}
	}
	if c.eco == 0 {
		return nil, fmt.Errorf("registry client: unknown ecosystem %q", info.Ecosystem)
	}
	return c, nil
}

// getJSON issues one GET under the client's deadline/backoff policy and,
// on 200, decodes the body into v. The final status is returned for the
// caller to map (404 → ErrNotFound stays the caller's decision); a non-nil
// error means no definitive answer arrived even after retries.
func (c *Client) getJSON(path string, q url.Values, v any) (int, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	status := 0
	err := c.retry.Do(context.Background(), func(ctx context.Context) error {
		if c.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return retry.Mark(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			// Transient server-side failure or deliberate shed: drain and
			// retry, honouring the server's Retry-After hint when present
			// (capped at the policy's MaxDelay). A 429 burns the throttle
			// budget, not the failure budget — a shedding registry is
			// healthy, just busy.
			_, _ = io.Copy(io.Discard, resp.Body)
			hint, _ := retry.ParseRetryAfter(resp.Header.Get("Retry-After"))
			serr := fmt.Errorf("status %d", resp.StatusCode)
			if resp.StatusCode == http.StatusTooManyRequests {
				return retry.MarkThrottled(serr, hint)
			}
			return retry.MarkAfter(serr, hint)
		}
		status = resp.StatusCode
		if status == http.StatusOK && v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
		}
		return nil
	})
	return status, err
}

// Name returns the remote endpoint's name.
func (c *Client) Name() string { return c.name }

// Ecosystem returns the remote endpoint's ecosystem.
func (c *Client) Ecosystem() ecosys.Ecosystem { return c.eco }

// Fetch retrieves an artifact as of time t. A 404 is the registry's
// definitive takedown answer (ErrNotFound); transport failures and 5xx
// responses surface as plain errors after the retry budget is spent, so
// callers never mistake an outage for a removal.
func (c *Client) Fetch(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, error) {
	q := url.Values{}
	q.Set("name", coord.Name)
	q.Set("version", coord.Version)
	q.Set("t", t.UTC().Format(time.RFC3339))
	var art ecosys.Artifact
	status, err := c.getJSON("/api/v1/package", q, &art)
	if err != nil {
		return nil, fmt.Errorf("registry client fetch: %w", err)
	}
	switch status {
	case http.StatusOK:
		return &art, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s (remote %s)", ErrNotFound, coord, c.name)
	default:
		return nil, fmt.Errorf("registry client fetch: status %d", status)
	}
}

var _ Endpoint = (*Client)(nil)

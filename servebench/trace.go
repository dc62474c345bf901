package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval in a traced run. Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. The HTTP
// replay names parents explicitly (pusher and reader run concurrently);
// the in-process replay runs on one goroutine and nests through enter/exit,
// so the timing wrappers attach their spans to whatever call is open. All
// methods are no-ops on a nil tracer, which is how untraced runs pay
// nothing for it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.t0)) }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// start opens a span under an explicit parent; finish closes it.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(now)})
	return id
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(now)
}

// enter opens a span nested under the innermost entered span; exit closes
// it and returns its duration.
func (t *tracer) enter(name string) int {
	if t == nil {
		return 0
	}
	id := t.start(name, t.current())
	t.mu.Lock()
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

func (t *tracer) exit(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.finish(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	s := t.spans[id-1]
	return time.Duration((s.End - s.Start) * float64(time.Millisecond))
}

// current is the innermost entered span (0 at the root).
func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// child records a finished span under the innermost entered span.
func (t *tracer) child(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(name, t.current(), start, end)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf maps a span name to its layer: "core.ingest" → "core",
// "http POST /api/v1/observations" → "http".
func layerOf(name string) string {
	if i := strings.IndexAny(name, ". "); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time per layer over the named spans.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// durations lists the durations of every span called name.
func durations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

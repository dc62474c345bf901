package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pipeline.append", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wal.write", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "wal.sync", Start: 15, End: 40}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "registry.recover", Start: 90, End: 130},
		{ID: 5, Parent: 3, Name: "wal.inner", Start: 20, End: 25},
		{ID: 6, Name: "epoch.results", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 100 - 30 - 10, // children cover 10–40 once, and 90–100 inside it
		2: 10,
		3: 25 - 5,
		4: 40,
		5: 5,
		6: 60,
	}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["wal"] != 35 || byLayer["pipeline"] != 60 || byLayer["epoch"] != 60 {
		t.Errorf("self by layer = %v", byLayer)
	}
}

func TestTracerNestsWrappersUnderTheOpenCall(t *testing.T) {
	tr := newTracer()
	outer := tr.enter("pipeline.append")
	inner := tr.enter("castore.compact")
	tr.exit(inner)
	start := tr.t0
	tr.child("wal.sync", start, start)
	tr.exit(outer)
	spans := tr.snapshot()
	if spans[1].Parent != outer || spans[2].Parent != outer {
		t.Errorf("spans = %+v: want both children under span %d", spans, outer)
	}
	var nilTracer *tracer
	if id := nilTracer.enter("x"); id != 0 || nilTracer.exit(id) != 0 {
		t.Error("a nil tracer must be a no-op")
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		p, want float64
	}{
		{1, 50, 1}, {1, 99, 1},
		{3, 50, 2}, {3, 95, 3}, // three samples: p95 is the largest
		{20, 50, 10}, {20, 95, 19},
		{100, 50, 50}, {100, 95, 95}, {100, 99, 99},
		{1000, 99, 990},
	}
	for _, c := range cases {
		got, n := percentile(seq(c.n), c.p)
		if got != c.want || n != c.n {
			t.Errorf("percentile(n=%d, p%v) = %v from %d samples, want %v from %d", c.n, c.p, got, n, c.want, c.n)
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty percentile = %v, %d; want NaN, 0", v, n)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestFreshnessNeverCountsAReadIssuedBeforeTheAck(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	pushes := []push{
		{due: d(0), sent: d(0), acked: d(30)},
		{due: d(100), sent: d(100), acked: d(140)},
		{due: d(200), sent: d(200), acked: d(250)},
	}
	reads := []read{
		{issued: d(10), done: d(35)},   // issued before push 0's ack: not push 0's
		{issued: d(35), done: d(200)},  // first read after push 0's ack
		{issued: d(200), done: d(260)}, // after push 1's ack, before push 2's
		{issued: d(249), done: d(300)}, // one ms before push 2's ack: not push 2's
		{issued: d(300), done: d(310)},
	}
	got := freshness(pushes, reads)
	want := samples{200, 160, 110}
	if len(got) != len(want) {
		t.Fatalf("freshness = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("push %d freshness = %vms, want %vms", i, got[i], want[i])
		}
	}
	// A push no read followed has no sample rather than a made-up one.
	if got := freshness([]push{{acked: d(400)}}, reads); len(got) != 0 {
		t.Errorf("freshness without a later read = %v, want none", got)
	}
}

func TestOpenLoopLatenessAndBacklog(t *testing.T) {
	iv := 100 * time.Millisecond
	build := func(n int, late func(i int) time.Duration) []push {
		ps := make([]push, n)
		for i := range ps {
			due := time.Duration(i) * iv
			ps[i] = push{due: due, sent: due + late(i), acked: due + late(i) + 20*time.Millisecond}
		}
		return ps
	}
	steady := build(40, func(i int) time.Duration { return time.Duration(i%3) * time.Millisecond })
	if l := lateness(steady); l[1] != 1 || l[2] != 2 {
		t.Errorf("lateness = %v, want 0,1,2,...", l[:3])
	}
	if backlogged(lateness(steady), iv) {
		t.Error("a loop that keeps its schedule was reported over capacity")
	}
	// Each send costs 130ms against a 100ms interval: lateness grows 30ms
	// per push and never recovers.
	growing := build(40, func(i int) time.Duration { return time.Duration(i) * 30 * time.Millisecond })
	if !backlogged(lateness(growing), iv) {
		t.Error("a loop whose lateness keeps growing was not reported over capacity")
	}
	// One stall that the loop catches up on is lateness, not a backlog.
	stall := build(40, func(i int) time.Duration {
		if i >= 5 && i < 10 {
			return time.Duration(10-i) * 80 * time.Millisecond
		}
		return 0
	})
	if backlogged(lateness(stall), iv) {
		t.Error("a recovered stall was reported over capacity")
	}
	// Early sends never count as negative lateness.
	if l := lateness([]push{{due: iv, sent: 0}}); l[0] != 0 {
		t.Errorf("early send lateness = %v, want 0", l[0])
	}
}

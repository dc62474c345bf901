package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and the number of samples it was chosen from. The nearest rank is
// ceil(p/100 * n): with 20 samples p95 is the 19th smallest, with 3 it is
// the largest. An empty list yields NaN.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// push is one timed write: when it was due (the open-loop schedule; equal
// to sent in a closed loop), when it went out and when its 2xx came back.
type push struct {
	due, sent, acked time.Duration
	seq              uint64 // durable sequence the ack carried
}

// read is one timed GET: when it was issued and when its response (200,
// or 304 for a conditional /results GET) had been read.
type read struct {
	issued, done time.Duration
}

// freshness attributes each acknowledged push to the first read issued at
// or after its acknowledgement, and returns due→done for every push that
// such a read exists for. A read issued before the ack can have been
// answered from an older epoch, so it never counts for that push. reads
// must be in issue order (one reader issues them sequentially).
func freshness(pushes []push, reads []read) samples {
	var out samples
	for _, p := range pushes {
		i := sort.Search(len(reads), func(i int) bool { return reads[i].issued >= p.acked })
		if i < len(reads) {
			out = append(out, ms(reads[i].done-p.due))
		}
	}
	return out
}

// lateness returns how late each push went out relative to its schedule.
func lateness(pushes []push) samples {
	out := make(samples, len(pushes))
	for i, p := range pushes {
		out[i] = ms(max(p.sent-p.due, 0))
	}
	return out
}

// backlogged reports whether an open loop fell behind for good: the pushes
// of the last quarter went out later, on median, than those of the first
// quarter by more than one send interval, and the last push was itself at
// least one interval late. A loop that keeps up has flat lateness near
// zero; one over capacity sends ever later, so its lateness keeps growing.
func backlogged(late samples, interval time.Duration) bool {
	n := len(late)
	if n < 8 {
		return false
	}
	q := n / 4
	iv := ms(interval)
	return median(late[n-q:])-median(late[:q]) > iv && late[n-1] > iv
}

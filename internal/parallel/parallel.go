// Package parallel provides the small, deterministic fan-out primitives the
// pipeline's hot paths share. Every helper preserves result order (workers
// race, outputs do not) and reports the first error in index order, so a
// computation whose iterations are independent produces bit-identical
// results under GOMAXPROCS=1 and GOMAXPROCS=N. That invariant is what lets
// core.Engine promise "parallel == sequential graph" for a fixed seed.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers returns the number of goroutines fan-outs use: the current
// GOMAXPROCS setting. Callers that want a sequential run set GOMAXPROCS=1
// rather than threading a width parameter through every layer.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// ForEach runs fn(i) for every i in [0, n), fanning out across Workers()
// goroutines. Iterations must be independent; fn writes to disjoint state
// (typically out[i]). Order of execution is unspecified, so fn must not
// fold floating-point results across iterations: a deterministic reduction
// gives each iteration a fixed slice of the input and merges the partial
// results in index order.
//
// A fan-out occupies every P, so a goroutine the network poller wakes (an
// HTTP read served beside an ingest or a Results computation) waits in the
// run queue until a worker leaves its P. The runtime preempts a goroutine
// that has run for 10 ms, but notices one only on its monitor's wake-ups,
// themselves up to 10 ms apart; each worker therefore also yields between
// iterations once yieldEvery has passed since its last yield, which bounds
// that wait at one slice.
func ForEach(n int, fn func(i int)) {
	w := Workers()
	if w == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	if w > n {
		w = n
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			last := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				if now := time.Now(); now.Sub(last) >= yieldEvery {
					runtime.Gosched()
					last = now
				}
			}
		}()
	}
	wg.Wait()
}

// yieldEvery is how long a ForEach worker runs before it yields: the
// runtime's own preemption slice. Shorter slices served reads sooner but
// slowed the fan-outs: at 1 ms the one-shot drain took ≈5–8 % longer.
const yieldEvery = 10 * time.Millisecond

// Map computes out[i] = fn(i) for i in [0, n) in parallel, preserving index
// order in the result.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachErr runs fn(i) for every i in [0, n) like ForEach and returns the
// first non-nil error in index order (not completion order), keeping error
// reporting deterministic. Every iteration runs, even after one fails.
func ForEachErr(n int, fn func(i int) error) error {
	errs := Map(n, fn)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do runs every task concurrently and returns the first error in argument
// order (not completion order), keeping error reporting deterministic.
func Do(tasks ...func() error) error {
	return ForEachErr(len(tasks), func(i int) error { return tasks[i]() })
}

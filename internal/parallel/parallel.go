// Package parallel provides the small, deterministic fan-out primitives the
// pipeline's hot paths share. Every helper preserves result order (workers
// race, outputs do not), and chunked reductions use boundaries that depend
// only on the input size — never on the worker count — so a computation run
// under GOMAXPROCS=1 and GOMAXPROCS=N produces bit-identical results. That
// invariant is what lets core.Build promise "parallel == sequential graph"
// for a fixed seed.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// fold floating-point results across iterations — use ForEachChunk when a
// deterministic reduction is needed.
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
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map computes out[i] = fn(i) for i in [0, n) in parallel, preserving index
// order in the result.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachChunk partitions [0, n) into fixed chunks of size chunk (the final
// chunk may be short) and runs fn(chunkIndex, lo, hi) for each. Chunk
// boundaries depend only on n and chunk, so per-chunk partial results merged
// in chunk-index order are identical under any worker count — the building
// block for deterministic parallel reductions over floating-point data.
func ForEachChunk(n, chunk int, fn func(ci, lo, hi int)) {
	if chunk <= 0 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	ForEach(nchunks, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(ci, lo, hi)
	})
}

// NumChunks returns the number of chunks ForEachChunk will produce, for
// callers pre-sizing per-chunk accumulators.
func NumChunks(n, chunk int) int {
	if chunk <= 0 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
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

package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn under a forced GOMAXPROCS setting.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestMapPreservesOrder(t *testing.T) {
	for _, procs := range []int{1, 8} {
		withProcs(t, procs, func() {
			out := Map(1000, func(i int) int { return i * i })
			for i, v := range out {
				if v != i*i {
					t.Fatalf("GOMAXPROCS=%d: out[%d] = %d", procs, i, v)
				}
			}
		})
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if out := Map(0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("empty Map = %v", out)
	}
	out := Map(1, func(i int) string { return "only" })
	if len(out) != 1 || out[0] != "only" {
		t.Fatalf("1-item Map = %v", out)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			const n = 500
			counts := make([]atomic.Int32, n)
			ForEach(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, got)
				}
			}
		})
	}
}

// TestForEachChunkBoundariesDeterministic is the load-bearing invariant: the
// chunk partition depends only on (n, chunk), never on the worker count, so
// per-chunk partial results merged in chunk order are bit-identical under
// any GOMAXPROCS.
func TestForEachChunkBoundariesDeterministic(t *testing.T) {
	capture := func(procs, n, chunk int) []string {
		var bounds []string
		withProcs(t, procs, func() {
			out := make([]string, NumChunks(n, chunk))
			ForEachChunk(n, chunk, func(ci, lo, hi int) {
				out[ci] = fmt.Sprintf("%d:%d-%d", ci, lo, hi)
			})
			bounds = out
		})
		return bounds
	}
	for _, tc := range []struct{ n, chunk int }{
		{0, 256}, {1, 256}, {255, 256}, {256, 256}, {257, 256}, {1000, 256}, {1000, 1}, {7, 3}, {5, 0},
	} {
		seq := capture(1, tc.n, tc.chunk)
		par := capture(8, tc.n, tc.chunk)
		if len(seq) != len(par) {
			t.Fatalf("n=%d chunk=%d: %d chunks sequential, %d parallel", tc.n, tc.chunk, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("n=%d chunk=%d: chunk %d bounds %q vs %q", tc.n, tc.chunk, i, seq[i], par[i])
			}
		}
		// Boundaries must tile [0, n) exactly.
		want := 0
		for ci, s := range seq {
			var gotCi, lo, hi int
			if _, err := fmt.Sscanf(s, "%d:%d-%d", &gotCi, &lo, &hi); err != nil {
				t.Fatal(err)
			}
			if gotCi != ci || lo != want || hi < lo {
				t.Fatalf("n=%d chunk=%d: bad bounds %s (want lo=%d)", tc.n, tc.chunk, s, want)
			}
			want = hi
		}
		if want != tc.n {
			t.Fatalf("n=%d chunk=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.chunk, want, tc.n)
		}
	}
}

func TestNumChunksMatchesForEachChunk(t *testing.T) {
	for _, tc := range []struct{ n, chunk int }{{0, 4}, {1, 4}, {4, 4}, {5, 4}, {9, 0}} {
		var calls atomic.Int32
		ForEachChunk(tc.n, tc.chunk, func(_, _, _ int) { calls.Add(1) })
		if got := int(calls.Load()); got != NumChunks(tc.n, tc.chunk) {
			t.Fatalf("n=%d chunk=%d: %d calls, NumChunks=%d", tc.n, tc.chunk, got, NumChunks(tc.n, tc.chunk))
		}
	}
}

// TestDoFirstErrorInArgumentOrder: Do must report the first error in
// *argument* order, not completion order, for deterministic error surfaces.
func TestDoFirstErrorInArgumentOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, procs := range []int{1, 8} {
		withProcs(t, procs, func() {
			// The later-argument error (errB) completes first; Do must still
			// return errA.
			err := Do(
				func() error { return nil },
				func() error { return errA },
				func() error { return errB },
			)
			if !errors.Is(err, errA) {
				t.Fatalf("GOMAXPROCS=%d: Do returned %v, want %v", procs, err, errA)
			}
		})
	}
}

func TestDoAllTasksRunDespiteError(t *testing.T) {
	var ran atomic.Int32
	err := Do(
		func() error { ran.Add(1); return errors.New("first") },
		func() error { ran.Add(1); return nil },
		func() error { ran.Add(1); return errors.New("third") },
	)
	if err == nil || err.Error() != "first" {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3 (no short-circuit)", ran.Load())
	}
}

func TestForEachErrFirstInIndexOrder(t *testing.T) {
	for _, procs := range []int{1, 8} {
		withProcs(t, procs, func() {
			var ran atomic.Int32
			err := ForEachErr(100, func(i int) error {
				ran.Add(1)
				if i == 3 || i == 97 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 3" || ran.Load() != 100 {
				t.Fatalf("GOMAXPROCS=%d: err = %v after %d iterations, want index 3 after 100", procs, err, ran.Load())
			}
		})
	}
}

func TestDoNoTasks(t *testing.T) {
	if err := Do(); err != nil {
		t.Fatalf("empty Do = %v", err)
	}
}

func TestWorkersFloor(t *testing.T) {
	withProcs(t, 1, func() {
		if got := Workers(); got != 1 {
			t.Fatalf("Workers at GOMAXPROCS=1 = %d", got)
		}
	})
	withProcs(t, 6, func() {
		if got := Workers(); got != 6 {
			t.Fatalf("Workers at GOMAXPROCS=6 = %d", got)
		}
	})
}

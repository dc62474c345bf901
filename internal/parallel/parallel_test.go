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

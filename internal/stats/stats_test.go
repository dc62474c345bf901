package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Fatal("empty CDF At must be 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("empty CDF quantile must be NaN")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	if got := c.Quantile(0.5); got != 20 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(-1); got != 10 {
		t.Fatalf("clamped low = %v", got)
	}
	if got := c.Quantile(2); got != 40 {
		t.Fatalf("clamped high = %v", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		prev := -1.0
		xs := append([]float64{}, clean...)
		sort.Float64s(xs)
		for _, x := range xs {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.At(xs[len(xs)-1]) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFInputNotMutated(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewCDF mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "n"}, [][]string{{"alpha", "1"}, {"b", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[1], "----") {
		t.Fatalf("bad header: %q", out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned:\n%q\n%q", lines[2], lines[3])
	}
}

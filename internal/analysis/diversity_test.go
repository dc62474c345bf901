package analysis

import (
	"math"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/graph"
)

func TestDiversityOnPipeline(t *testing.T) {
	p := buildPipeline(t)
	rep := Diversity(p.mg)
	if rep.Families == 0 || rep.Packages == 0 {
		t.Fatalf("empty diversity report: %+v", rep)
	}
	// Shannon entropy bounds: 0 ≤ H ≤ ln(families).
	if rep.ShannonEntropy < 0 || rep.ShannonEntropy > math.Log(float64(rep.Families))+1e-9 {
		t.Fatalf("entropy out of bounds: %+v", rep)
	}
	// Effective families never exceeds actual families.
	if rep.EffectiveFamilies > float64(rep.Families)+1e-9 {
		t.Fatalf("effective %v > families %d", rep.EffectiveFamilies, rep.Families)
	}
	// Simpson index in (0, 1].
	if rep.SimpsonIndex <= 0 || rep.SimpsonIndex > 1 {
		t.Fatalf("simpson = %v", rep.SimpsonIndex)
	}
	// The paper's Finding 2: a few aggressive families dominate — the top 5
	// families hold a large share while being a tiny fraction of families.
	if rep.Top5Share < 0.2 {
		t.Errorf("top-5 share %v suspiciously flat for this corpus", rep.Top5Share)
	}
	if rep.EffectiveFamilies >= float64(rep.Families) {
		t.Errorf("effective families %v should be well below %d (dominance)", rep.EffectiveFamilies, rep.Families)
	}
}

func TestDiversityEmptyGraph(t *testing.T) {
	// A MalGraph with no packages and no similar subgraphs must give the
	// zero report: no division by zero, no NaN.
	mg := &core.MalGraph{G: graph.New(), Dataset: &collect.Result{}}
	rep := Diversity(mg)
	if rep != (DiversityReport{}) {
		t.Fatalf("empty graph report = %+v, want zero", rep)
	}
}

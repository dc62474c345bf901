package analysis

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"malgraph/internal/codegen"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
)

// referenceOperations is Operations as one serial pass that re-reads both
// artifacts of every transition: MergedSource strings, a map multiset of
// their lines and a map multiset of their manifest dependencies. It also
// checks each inspectable transition's diff facts against that reading.
func referenceOperations(t *testing.T, mg *core.MalGraph, et graph.EdgeType) OpsDist {
	t.Helper()
	var dist OpsDist
	var nameVersionOps, cn, inspectable, changedLineSum int
	var cd, cdep, cc int
	for _, members := range mg.PackageSubgraphs(et, 2) {
		entries := subgraphEntries(mg, members)
		for i := 1; i < len(entries); i++ {
			prev, cur := entries[i-1], entries[i]
			dist.Transitions++
			if prev.Coord.Name != cur.Coord.Name {
				cn++
				nameVersionOps++
			} else if prev.Coord.Version != cur.Coord.Version {
				nameVersionOps++
			}
			if prev.Artifact == nil || cur.Artifact == nil {
				continue
			}
			inspectable++
			a, b := prev.Artifact, cur.Artifact
			var ops []codegen.Op
			if a.Coord.Name != b.Coord.Name {
				ops = append(ops, codegen.OpName)
			} else if a.Coord.Version != b.Coord.Version {
				ops = append(ops, codegen.OpVersion)
			}
			if a.Description != b.Description {
				ops = append(ops, codegen.OpDescription)
				cd++
			}
			if !sameMultiset(codegen.ManifestDeps(a), codegen.ManifestDeps(b)) {
				ops = append(ops, codegen.OpDependency)
				cdep++
			}
			lines := 0
			if a.MergedSource() != b.MergedSource() {
				ops = append(ops, codegen.OpCode)
				cc++
				lines = referenceChangedLines(a, b)
				changedLineSum += lines
			}
			fa, fb := codegen.NewDiffFacts(a), codegen.NewDiffFacts(b)
			if got := fa.Ops(fb); !slices.Equal(got, ops) {
				t.Fatalf("%s: %v → %v: facts diff %v, reference %v", et, prev.Coord, cur.Coord, got, ops)
			}
			if got := fa.ChangedLines(fb); lines > 0 && got != lines {
				t.Fatalf("%s: %v → %v: facts change %d lines, reference %d", et, prev.Coord, cur.Coord, got, lines)
			}
		}
	}
	if nameVersionOps > 0 {
		dist.CN = float64(cn) / float64(nameVersionOps)
		dist.CV = 1 - dist.CN
	}
	if inspectable > 0 {
		dist.CD = float64(cd) / float64(inspectable)
		dist.CDep = float64(cdep) / float64(inspectable)
		dist.CC = float64(cc) / float64(inspectable)
	}
	if cc > 0 {
		dist.AvgChangedLines = float64(changedLineSum) / float64(cc)
	}
	return dist
}

func sameMultiset(a, b []string) bool {
	count := make(map[string]int)
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// referenceChangedLines is the multiset line diff over MergedSource.
func referenceChangedLines(a, b *ecosys.Artifact) int {
	count := make(map[string]int)
	for _, line := range strings.Split(a.MergedSource(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			count[line]++
		}
	}
	for _, line := range strings.Split(b.MergedSource(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			count[line]--
		}
	}
	diff := 0
	for _, n := range count {
		diff += max(n, -n)
	}
	return (diff + 1) / 2
}

// TestOperationsMatchesReference compares Operations with the reference on
// every transition of the similar and co-existing families of the
// scale-0.05 world, fanned out over one worker and over eight.
func TestOperationsMatchesReference(t *testing.T) {
	p := buildPipeline(t)
	for _, et := range []graph.EdgeType{graph.Similar, graph.Coexisting} {
		want := referenceOperations(t, p.mg, et)
		if want.Transitions == 0 || want.CC == 0 {
			t.Fatalf("%s: reference saw %+v; the check needs code changes", et, want)
		}
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := Operations(p.mg, et)
			runtime.GOMAXPROCS(prev)
			if got != want {
				t.Fatalf("%s at GOMAXPROCS %d: Operations %+v, reference %+v", et, procs, got, want)
			}
		}
	}
}

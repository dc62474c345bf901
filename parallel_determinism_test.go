package malgraph

// The parallel MALGRAPH construction promises bit-identical output to a
// sequential run for a fixed seed (ISSUE: "parallel == sequential graph").
// These tests build the pipeline under GOMAXPROCS=1 and under a forced
// multi-worker setting and require the graphs to agree exactly: same nodes,
// same per-type edge counts, same serialized bytes (which pins edge
// insertion order, attributes and cluster labels), and same NPM similar
// clusters. The engine digest extends the check past the graph to every
// derived section: items, imports and the per-coordinate report index.

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"

	"malgraph/internal/graph"
)

// buildAt builds the pipeline with the given GOMAXPROCS, restoring the
// previous setting before returning.
func buildAt(t *testing.T, procs int, scale float64) *Pipeline {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	p, err := BuildPipeline(context.Background(), Config{Scale: scale})
	if err != nil {
		t.Fatalf("BuildPipeline(GOMAXPROCS=%d): %v", procs, err)
	}
	return p
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	seq := buildAt(t, 1, 0.05)
	par := buildAt(t, 8, 0.05) // forced >1 even on single-core machines

	if got, want := par.Engine.Graph().G.NodeCount(), seq.Engine.Graph().G.NodeCount(); got != want {
		t.Errorf("node count: parallel %d, sequential %d", got, want)
	}
	for _, et := range graph.EdgeTypes() {
		if got, want := par.Engine.Graph().G.EdgeCount(et), seq.Engine.Graph().G.EdgeCount(et); got != want {
			t.Errorf("%s edge count: parallel %d, sequential %d", et, got, want)
		}
	}

	// Byte-level equality pins everything the counts can miss: node
	// attributes, edge endpoints and order, cluster/silhouette labels.
	var seqJSON, parJSON bytes.Buffer
	if err := seq.Engine.Graph().G.WriteJSON(&seqJSON); err != nil {
		t.Fatal(err)
	}
	if err := par.Engine.Graph().G.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		t.Errorf("serialized graphs differ (%d vs %d bytes)", seqJSON.Len(), parJSON.Len())
	}
	assertSameState(t, par.Engine, seq.Engine, "GOMAXPROCS 8 vs 1")

	// The Table X training families, member coordinates in order.
	if sc, pc := npmClusterCoords(seq), npmClusterCoords(par); !slices.EqualFunc(sc, pc, slices.Equal) {
		t.Errorf("NPM clusters differ: %d sequential, %d parallel", len(sc), len(pc))
	}
}

// TestParallelIncrementalBuildMatchesSequential pins the LSH-scoped path's
// GOMAXPROCS determinism where it actually runs hot: a *streaming* build
// (five batches, so partial re-clustering with per-partition worker fan-out
// fires on every append) must serialize byte-identically under 1 and 8
// workers.
func TestParallelIncrementalBuildMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	buildStreaming := func(procs int) *Pipeline {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.05}, 5)
		if err != nil {
			t.Fatalf("NewStreamingPipeline(GOMAXPROCS=%d): %v", procs, err)
		}
		for {
			if _, ok, err := p.AppendNext(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		return p
	}
	seq := buildStreaming(1)
	par := buildStreaming(8)
	var seqJSON, parJSON bytes.Buffer
	if err := seq.Engine.Graph().G.WriteJSON(&seqJSON); err != nil {
		t.Fatal(err)
	}
	if err := par.Engine.Graph().G.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		t.Errorf("incremental serialized graphs differ (%d vs %d bytes)", seqJSON.Len(), parJSON.Len())
	}
	assertSameState(t, par.Engine, seq.Engine, "GOMAXPROCS 8 vs 1")
}

// TestParallelAnalyzeMatchesSequential runs the full Analyze stage (the
// fanned-out RQ1–RQ4 blocks) under both settings and compares the rendered
// reports, which serialize every table and figure.
func TestParallelAnalyzeMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	render := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		res, err := Run(Config{Scale: 0.05})
		if err != nil {
			t.Fatalf("Run(GOMAXPROCS=%d): %v", procs, err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("rendered results differ between GOMAXPROCS=1 and 8:\n--- seq len %d\n--- par len %d", len(seq), len(par))
	}
}

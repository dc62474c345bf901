package malgraph

// Read/write isolation suite (ISSUE 7): concurrent readers hammer the
// epoch-published query surface — results, stats, node — while a writer
// streams shuffled batches into the same pipeline. Every response a reader
// observes must equal the corresponding batch-boundary state of an
// identical serial reference run (no torn graphs, no half-applied
// batches), and the epoch ID and durable sequence each reader observes
// must be monotone. CI runs this file under -race, where any copy-on-write
// violation between the ingest path and a published epoch is a hard error.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"malgraph/internal/core"
	"malgraph/internal/graph"
)

// probeView is a recorded node query at one batch boundary.
type probeView struct {
	ok        bool
	node      graph.Node
	neighbors map[string][]string
}

// epochReference is the serial ground truth: for every epoch ID the
// concurrent run can publish, the pipeline shape and a set of probe-node
// views at that boundary.
type epochReference struct {
	stats  map[uint64]PipelineStats
	probes map[uint64]map[string]probeView
	ids    []string // probe node IDs
}

func (ref *epochReference) record(p *Pipeline) {
	ep := p.CurrentEpoch()
	ref.stats[ep.ID()] = ep.Stats()
	views := make(map[string]probeView, len(ref.ids))
	for _, id := range ref.ids {
		n, nb, ok := ep.Node(id)
		views[id] = probeView{ok: ok, node: n, neighbors: nb}
	}
	ref.probes[ep.ID()] = views
}

// shuffledPipeline builds a streaming pipeline and a deterministic shuffled
// k-partition of its collected corpus. Two calls produce byte-identical
// worlds and partitions, so a serial and a concurrent run replay the same
// batch sequence.
func shuffledPipeline(t *testing.T, scale float64, k int) (*Pipeline, []core.Batch) {
	t.Helper()
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, shuffledBatches(p, k, 777)
}

func TestEpochReadsDuringShuffledIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const (
		scale   = 0.05
		k       = 10
		readers = 4
	)

	// Serial reference run: replay the shuffled batches one by one and
	// record every batch-boundary epoch (keyed by epoch ID — construction
	// publishes 1, each append increments).
	refP, batches := shuffledPipeline(t, scale, k)
	ref := &epochReference{
		stats:  make(map[uint64]PipelineStats),
		probes: make(map[uint64]map[string]probeView),
	}
	// Probe IDs: a deterministic spread of the final corpus, so some probes
	// flip from absent to present mid-run and carry growing neighbor lists.
	finalIDs := func() []string {
		tmp, tb := shuffledPipeline(t, scale, k)
		for _, b := range tb {
			if _, err := tmp.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		ids := tmp.Engine.Graph().G.NodeIDs()
		sort.Strings(ids)
		return ids
	}()
	if len(finalIDs) == 0 {
		t.Fatal("empty corpus")
	}
	for _, idx := range []int{0, len(finalIDs) / 2, len(finalIDs) - 1} {
		ref.ids = append(ref.ids, finalIDs[idx])
	}
	ref.record(refP)
	for bi, b := range batches {
		if _, err := refP.Append(b); err != nil {
			t.Fatalf("reference append %d: %v", bi, err)
		}
		ref.record(refP)
	}

	// Concurrent run: one writer streams the same batches while readers
	// hammer the query surface.
	p, batches2 := shuffledPipeline(t, scale, k)
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			var lastID, lastSeq uint64
			iters := 0
			for !done.Load() || iters == 0 {
				iters++
				ep := p.CurrentEpoch()
				if ep.ID() < lastID {
					errc <- fmt.Errorf("reader %d: epoch went backwards: %d after %d", ri, ep.ID(), lastID)
					return
				}
				if ep.Seq() < lastSeq {
					errc <- fmt.Errorf("reader %d: seq went backwards: %d after %d", ri, ep.Seq(), lastSeq)
					return
				}
				lastID, lastSeq = ep.ID(), ep.Seq()
				want, ok := ref.stats[ep.ID()]
				if !ok {
					errc <- fmt.Errorf("reader %d: epoch %d is not a reference batch boundary", ri, ep.ID())
					return
				}
				if got := ep.Stats(); !reflect.DeepEqual(got, want) {
					errc <- fmt.Errorf("reader %d: epoch %d stats torn:\n got %+v\nwant %+v", ri, ep.ID(), got, want)
					return
				}
				for _, id := range ref.ids {
					n, nb, ok := ep.Node(id)
					wantView := ref.probes[ep.ID()][id]
					if ok != wantView.ok || !reflect.DeepEqual(n, wantView.node) || !reflect.DeepEqual(nb, wantView.neighbors) {
						errc <- fmt.Errorf("reader %d: epoch %d node %s torn: ok=%v n=%+v nb=%v, want ok=%v n=%+v nb=%v",
							ri, ep.ID(), id, ok, n, nb, wantView.ok, wantView.node, wantView.neighbors)
						return
					}
				}
				// Results are the expensive read; sample them. The scalar
				// graph-shape fields must match the same epoch's stats — a
				// mismatch means Analyze saw a graph from a different moment
				// than the epoch it was published with.
				if iters%8 == 0 {
					res, err := ep.Results()
					if err != nil {
						errc <- fmt.Errorf("reader %d: epoch %d results: %v", ri, ep.ID(), err)
						return
					}
					if res.GraphNodes != want.Nodes || res.GraphEdges != want.Edges ||
						res.TotalPackages != want.Entries || res.CrawledReports != want.Reports {
						errc <- fmt.Errorf("reader %d: epoch %d results torn: nodes=%d edges=%d pkgs=%d reports=%d, want %+v",
							ri, ep.ID(), res.GraphNodes, res.GraphEdges, res.TotalPackages, res.CrawledReports, want)
						return
					}
				}
			}
		}(ri)
	}
	for bi, b := range batches2 {
		if _, err := p.Append(b); err != nil {
			t.Fatalf("concurrent append %d: %v", bi, err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The drained concurrent pipeline must match the serial reference
	// exactly — shuffled, raced ingest converged to the same state.
	finalGot, finalWant := p.CurrentEpoch(), refP.CurrentEpoch()
	if !reflect.DeepEqual(finalGot.Stats(), finalWant.Stats()) {
		t.Errorf("final stats differ:\n got %+v\nwant %+v", finalGot.Stats(), finalWant.Stats())
	}
	assertSameState(t, p.Engine, refP.Engine, "epoch-race final")
}

package malgraph

// The shuffled-partition suites run at scale 0.05, where no SimHash band
// bucket holds more than a few dozen items. At the paper's size (scale 1.0,
// ≈24k packages) the reused code of large campaigns piles near-identical
// fingerprints into buckets of hundreds, the load where a cap on
// verification would let two insertion orders build different partitions.
// TestPaperScaleEquivalence checks the equivalence contract there.

import (
	"context"
	"testing"

	"malgraph/internal/core"
)

// TestPaperScaleEquivalence drains the seed-1, scale-1.0 world as one batch
// and requires the 200-batch feed and shuffled partitions into k ∈ {3, 10}
// batches to build the same state: every Engine.Digest section.
// Each partition is ingested into a bare engine and dropped once digested,
// so only one scale-1.0 engine beside the reference is alive at a time.
func TestPaperScaleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1.0 builds")
	}
	if raceEnabled {
		t.Skip("checks determinism, not concurrency; the race-free test run covers it")
	}
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 1.0}, 1)
	if err == nil {
		_, _, _, err = p.AppendPending(-1, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	ds, reportCorpus := p.Source()
	for _, c := range []struct {
		label   string
		batches []core.Batch
	}{
		{"feed k=200", BatchFeed(ds, reportCorpus, 200)},
		{"shuffle k=3", shuffledBatches(p, 3, 1003)},
		{"shuffle k=10", shuffledBatches(p, 10, 1010)},
	} {
		eng := core.NewEngine(core.DefaultConfig())
		for bi, b := range c.batches {
			if _, err := eng.Ingest(b); err != nil {
				t.Fatalf("%s: batch %d: %v", c.label, bi, err)
			}
		}
		assertSameState(t, eng, p.Engine, c.label)
	}
}

package malgraph

// The determinism suites compare two runs of the same code, so a change
// that alters what the engine builds — a dependency scanner that drops an
// import, a commit that reorders node insertion — passes them as long as it
// is deterministic. TestBuildGoldenDigest pins the built state itself: one
// SHA-256 over every Engine.Digest section after the one-shot drain (one
// feed batch, the serve cold-start shape) and after the 200-batch feed.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// buildGolden maps a feed size to the engine digest its full drain yields
// at seed 1, scale 0.05. A change to either value means the built MALGRAPH
// (dataset, graph, reports, clustering items and partitions, import cache
// or co-existing index) changed.
var buildGolden = map[int]string{
	1:   "2c712dc8e50cd33812476ae416206d9311645bd13be2e0b3b3f5fc4c09d1087d",
	200: "9aa215ac51bd80bd86c6a4cbe7153e1a89d2bc996f334cfe2368228b88ff40c2",
}

// engineDigest folds p's per-section engine digest into one hex SHA-256,
// sections in name order.
func engineDigest(t *testing.T, p *Pipeline) string {
	t.Helper()
	sections, err := p.Engine.Digest()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s:%s\n", name, sections[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBuildGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds")
	}
	for _, batches := range []int{1, 200} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, batches)
			if err == nil {
				_, _, _, err = p.AppendPending(-1, false)
			}
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%d batches, GOMAXPROCS=%d: %v", batches, procs, err)
			}
			if got := engineDigest(t, p); got != buildGolden[batches] {
				t.Errorf("%d batches, GOMAXPROCS=%d: engine digest %s, want %s", batches, procs, got, buildGolden[batches])
			}
		}
	}
}

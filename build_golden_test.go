package malgraph

// The determinism suites compare two runs of the same code, so a change
// that alters what the engine builds — a dependency scanner that drops an
// import, a commit that reorders node insertion — passes them as long as it
// is deterministic. TestBuildGoldenDigest pins the built state itself: one
// SHA-256 over every Engine.Digest section, one value after the one-shot
// drain (one feed batch, the serve cold-start shape) and after the
// 200-batch feed.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// buildGolden is the engine digest the full drain yields at seed 1, scale
// 0.05, after the one-shot drain and after the 200-batch feed alike: the
// graph section hashes the graph as a set, so the two feeds' different edge
// insertion orders do not show. A change to it means the built MALGRAPH
// (dataset, graph, reports, clustering items and partitions, import cache
// or co-existing index) changed.
const buildGolden = "8d809e8f6a856d581b1d053d5ff92677123ac138231f9fe2dd9f41f2f825cfc9"

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
			if got := engineDigest(t, p); got != buildGolden {
				t.Errorf("%d batches, GOMAXPROCS=%d: engine digest %s, want %s", batches, procs, got, buildGolden)
			}
		}
	}
}

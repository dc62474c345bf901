package malgraph

// The determinism suites compare two runs of the same code, so a change
// that alters what the engine builds — a dependency scanner that drops an
// import, a commit that reorders node insertion — passes them as long as it
// is deterministic. TestBuildGoldenDigest pins the built state itself: one
// SHA-256 over every Engine.Digest section, one value after the one-shot
// drain (one feed batch, the serve cold-start shape) and after the
// 200-batch feed. TestResultsGoldenDigest pins the Results the analyses
// derive from that state, the same two ways.

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
const buildGolden = "5af544aa5ff2c426f97a2392a326b6a1eaa66d1a15bc448d753853464c31aab6"

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

// resultsGolden is the SHA-256 of Epoch.ResultsJSON at seed 1, scale 0.05,
// after the one-shot drain and after the 200-batch feed analysed after
// every batch. The fed run recomputes only each epoch's dirty blocks and
// reuses the rest, so a block that reuses a stale value shows here.
const resultsGolden = "0fd907d3dec949cf42685c582a08dd9d747ec28ca0b2fce8c7d956e222e634bb"

func TestResultsGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds; the fed run analyses 200 epochs")
	}
	for _, batches := range []int{1, 200} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := resultsDigest(batches)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%d batches, GOMAXPROCS=%d: %v", batches, procs, err)
			}
			if got != resultsGolden {
				t.Errorf("%d batches, GOMAXPROCS=%d: results digest %s, want %s", batches, procs, got, resultsGolden)
			}
		}
	}
}

// resultsDigest drains a feed of the given batch count, calling Analyze
// after every batch, and hashes the drained epoch's ResultsJSON.
func resultsDigest(batches int) (string, error) {
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, batches)
	if err != nil {
		return "", err
	}
	for {
		_, ok, err := p.AppendNext()
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		if _, err := p.Analyze(); err != nil {
			return "", err
		}
	}
	raw, err := p.CurrentEpoch().ResultsJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

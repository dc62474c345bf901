package textsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"malgraph/internal/ecosys"
)

// checkPartition clusters one partition with ClusterPartition and with the
// general oracle, which must yield at most one cluster, and requires the
// same outcome: the same members and a bit-equal silhouette.
func checkPartition(t testing.TB, part []Item, cfg ClusterConfig) {
	t.Helper()
	want := ClusterItems(part, cfg)
	if len(want) > 1 {
		t.Fatalf("partition %s (%d items): oracle yields %d clusters", part[0].ID, len(part), len(want))
	}
	got, ok := ClusterPartition(part, cfg)
	if ok != (len(want) == 1) {
		t.Fatalf("partition %s (%d items): ClusterPartition ok=%v, oracle %d clusters", part[0].ID, len(part), ok, len(want))
	}
	if !ok {
		return
	}
	w := want[0]
	if !slices.Equal(got.Members, w.Members) {
		t.Fatalf("partition %s: members %v, oracle %v", part[0].ID, got.Members, w.Members)
	}
	if math.Float64bits(got.Silhouette) != math.Float64bits(w.Silhouette) {
		t.Fatalf("partition %s: silhouette %v, oracle %v", part[0].ID, got.Silhouette, w.Silhouette)
	}
}

// lshPartitions indexes items under cfg and returns every partition's items
// in member (ID) order, read through x.Item as the engine reads them for
// ClusterPartition.
func lshPartitions(items []Item, cfg ClusterConfig) [][]Item {
	x := NewLSHIndex(cfg)
	addAll(x, items)
	var out [][]Item
	for _, key := range partitions(x) {
		var part []Item
		for _, id := range x.Members(key) {
			it, _ := x.Item(id)
			part = append(part, it)
		}
		out = append(out, part)
	}
	return out
}

// worldItems embeds the seed-1 world's artifacts at scale the way the
// engine does (one HashSource stream per merged source, shared by
// EmbedHashed and SimHashHashed), grouped by ecosystem.
func worldItems(tb testing.TB, scale float64) map[ecosys.Ecosystem][]Item {
	tb.Helper()
	e := NewEmbedder(DefaultEmbedConfig())
	var buf EmbedBuffer
	var hashed []TokenHash
	seen := make(map[string]bool)
	out := make(map[ecosys.Ecosystem][]Item)
	for _, a := range worldArtifacts(tb, scale) {
		id := a.Coord.Key()
		if seen[id] {
			continue
		}
		seen[id] = true
		hashed = HashSource(hashed, a.MergedSource())
		out[a.Coord.Ecosystem] = append(out[a.Coord.Ecosystem], Item{
			ID:     id,
			Vector: e.EmbedHashed(hashed, &buf),
			Hash:   SimHashHashed(hashed),
		})
	}
	return out
}

// TestClusterPartitionMatchesOracleOnWorld checks every LSH partition of
// the seed-1 world, one index per ecosystem, against the general oracle
// under GOMAXPROCS 1 and 8. Only scale 0.5 has a partition of more than 256
// items (the silhouette's chunk merge), so it runs unless -short.
func TestClusterPartitionMatchesOracleOnWorld(t *testing.T) {
	for _, scale := range []float64{0.05, 0.5} {
		t.Run(fmt.Sprintf("scale=%v", scale), func(t *testing.T) {
			if scale > 0.05 && testing.Short() {
				t.Skip("scale 0.5 world in -short mode")
			}
			cfg := DefaultClusterConfig()
			var parts [][]Item
			largest := 0
			for _, items := range worldItems(t, scale) {
				for _, part := range lshPartitions(items, cfg) {
					parts = append(parts, part)
					largest = max(largest, len(part))
				}
			}
			if scale == 0.5 && largest <= silChunk {
				t.Fatalf("largest partition has %d items: no partition crosses a %d-item silhouette chunk", largest, silChunk)
			}
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				for _, part := range parts {
					checkPartition(t, part, cfg)
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// fuzzClusterConfigs are the configs every fuzzed partition is checked
// under: the paper's, and one that keeps singletons and refines once.
var fuzzClusterConfigs = []ClusterConfig{
	DefaultClusterConfig(),
	{Threshold: 0.7, MinSilhouette: 0.3, MinSize: 1, KMeansIters: 1, LSHBands: 8},
}

// decodeFuzzItems reads items from data, at most 600 of them. Each item is
// a fingerprint byte h, a length byte n and n%9 signed-byte components,
// L2-normalised and zero-tail-trimmed like an EmbedHashed vector. An h
// below 0x80 yields a fingerprint differing from a common base in at most
// one byte, so such items share at least six of eight bands and their
// partitions are decided by cosine; h ≥ 0x80 yields a scattered fingerprint.
func decodeFuzzItems(data []byte) []Item {
	var items []Item
	for len(data) >= 2 && len(items) < 600 {
		h, n := data[0], int(data[1]%9)
		data = data[2:]
		n = min(n, len(data))
		vec := make([]float64, n)
		for d := range vec {
			vec[d] = float64(int8(data[d]))
		}
		data = data[n:]
		normalize(vec)
		hash := 0x0123456789ABCDEF ^ uint64(h)<<(8*(h%8))
		if h >= 0x80 {
			hash = uint64(h) * 0x9E3779B97F4A7C15
		}
		items = append(items, Item{ID: fmt.Sprintf("i%04d", len(items)), Vector: TrimZeroTail(vec), Hash: hash})
	}
	return items
}

// FuzzClusterPartition checks ClusterPartition against the general oracle
// on every LSH partition of a decoded item set (decodeFuzzItems). The
// committed corpus covers a chain whose end items fall below the threshold
// against the centroid, a ring whose centroid cancels out, and a partition
// of 300 items.
func FuzzClusterPartition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		items := decodeFuzzItems(data)
		for _, cfg := range fuzzClusterConfigs {
			for _, part := range lshPartitions(items, cfg) {
				checkPartition(t, part, cfg)
			}
		}
	})
}

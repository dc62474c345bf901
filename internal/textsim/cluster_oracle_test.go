package textsim

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"malgraph/internal/parallel"
)

// The general clusterer ClusterPartition replaces, kept as the test oracle:
// banded-LSH candidate pairs, union–find over verified pairs, a rescue merge
// of singletons into multi-member cores, K-Means refinement seeded at every
// group's centroid (k = #groups) and the simplified silhouette against the
// nearest other centroid. On an LSHIndex partition the candidate relation
// is the one that built the partition, so this yields one group, K-Means
// runs with k = 1, and ClusterPartition must reproduce the result bit for
// bit (TestClusterPartitionMatchesOracleOnWorld, FuzzClusterPartition).
// Its assignment and silhouette loops fan out over silChunk-item chunks
// (forEachChunk, at the end of this file), whose partial sums merged in
// chunk order are identical under any GOMAXPROCS.

// ClusterItems groups items whose code bases are similar:
//
//  1. Banded-LSH candidate generation over SimHash fingerprints.
//  2. Union–find merge of candidate pairs whose cosine ≥ Threshold.
//  3. Rescue merge of LSH-missed singletons into multi-member cores.
//  4. K-Means refinement seeded from the merged groups (k = #groups).
//  5. Simplified-silhouette filtering (< MinSilhouette dropped) and MinSize
//     filtering.
func ClusterItems(items []Item, cfg ClusterConfig) []Cluster {
	if len(items) == 0 {
		return nil
	}
	if cfg.Threshold == 0 {
		cfg = DefaultClusterConfig()
	}
	parent := make([]int, len(items))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Steps 1+2: (band key, item) pairs sorted by key walk the LSH buckets
	// in key order; verify every co-bucketed pair not yet connected.
	type bucketPair struct {
		key uint64
		idx int
	}
	nb, _ := cfg.candidateParams()
	var pairs []bucketPair
	for i, it := range items {
		for bi := 0; bi < nb; bi++ {
			pairs = append(pairs, bucketPair{key: bandKey(it.Hash, nb, bi), idx: i})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key < pairs[b].key
		}
		return pairs[a].idx < pairs[b].idx
	})
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].key == pairs[lo].key {
			hi++
		}
		ids := pairs[lo:hi]
		lo = hi
		for i := 1; i < len(ids); i++ {
			for j := 0; j < i; j++ {
				ra, rb := find(ids[i].idx), find(ids[j].idx)
				if ra != rb && Dot(items[ids[i].idx].Vector, items[ids[j].idx].Vector) >= cfg.Threshold {
					parent[ra] = rb
				}
			}
		}
	}
	groups := make(map[int][]int)
	for i := range items {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	groups = rescueMerge(items, groups, cfg.Threshold)

	// Step 4: K-Means seeded at the group centroids in root order.
	roots := sortedRoots(groups)
	seeds := make([][]float64, 0, len(roots))
	for _, root := range roots {
		seeds = append(seeds, centroid(items, groups[root]))
	}
	vecs := make([][]float64, len(items))
	for i := range items {
		vecs[i] = items[i].Vector
	}
	assign := KMeans(vecs, seeds, cfg.KMeansIters, cfg.Threshold)

	// Step 5: silhouette + size filtering.
	byCluster := make(map[int][]int)
	for i, c := range assign {
		if c >= 0 {
			byCluster[c] = append(byCluster[c], i)
		}
	}
	sil := SimplifiedSilhouette(vecs, assign, len(seeds))
	var out []Cluster
	for _, c := range sortedRoots(byCluster) {
		members := byCluster[c]
		if len(members) < cfg.MinSize || sil[c] < cfg.MinSilhouette {
			continue
		}
		ids := make([]string, 0, len(members))
		for _, m := range members {
			ids = append(ids, items[m].ID)
		}
		sort.Strings(ids)
		out = append(out, Cluster{Members: ids, Silhouette: sil[c]})
	}
	return out
}

func sortedRoots(groups map[int][]int) []int {
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	return roots
}

// rescueMerge merges each singleton group into the multi-member core whose
// centroid it is most similar to, when that cosine clears threshold.
func rescueMerge(items []Item, groups map[int][]int, threshold float64) map[int][]int {
	type core struct {
		root     int
		centroid []float64
	}
	var cores []core
	roots := sortedRoots(groups)
	for _, root := range roots {
		if len(groups[root]) >= 2 {
			cores = append(cores, core{root: root, centroid: centroid(items, groups[root])})
		}
	}
	if len(cores) == 0 {
		return groups
	}
	for _, root := range roots {
		members := groups[root]
		if len(members) >= 2 {
			continue
		}
		c := centroid(items, members)
		bestIdx, bestSim := -1, threshold
		for ci := range cores {
			if sim := Dot(c, cores[ci].centroid); sim >= bestSim {
				bestIdx, bestSim = ci, sim
			}
		}
		if bestIdx >= 0 {
			dst := cores[bestIdx].root
			groups[dst] = append(groups[dst], members...)
			delete(groups, root)
		}
	}
	return groups
}

// centroid returns the L2-normalised mean of the members' vectors, sized
// for the longest member (nil for no members).
func centroid(items []Item, members []int) []float64 {
	dim := 0
	for _, m := range members {
		dim = max(dim, len(items[m].Vector))
	}
	var dst []float64
	if dim > 0 {
		dst = make([]float64, dim)
	}
	for _, m := range members {
		for d, x := range items[m].Vector {
			dst[d] += x
		}
	}
	normalize(dst)
	return dst
}

// KMeans assigns each vector to its most-similar seed centroid, iterating
// centroid updates up to iters times. Vectors whose best similarity falls
// below threshold are left unassigned (-1); k equals len(seeds). Centroid
// rows are zero-padded to the longest vector, which changes no Dot value.
func KMeans(vecs [][]float64, seeds [][]float64, iters int, threshold float64) []int {
	k := len(seeds)
	assign := make([]int, len(vecs))
	if k == 0 {
		for i := range assign {
			assign[i] = -1
		}
		return assign
	}
	stride := 0
	for _, s := range seeds {
		stride = max(stride, len(s))
	}
	for _, v := range vecs {
		stride = max(stride, len(v))
	}
	cents := make([][]float64, k)
	alive := make([]bool, k)
	for c, s := range seeds {
		cents[c] = make([]float64, stride)
		copy(cents[c], s)
		alive[c] = true
	}
	for iter := 0; iter < max(iters, 1); iter++ {
		first := iter == 0
		var changed atomic.Bool
		forEachChunk(len(vecs), silChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				best, bestSim := -1, threshold
				for c := range cents {
					if !alive[c] {
						continue
					}
					if sim := Dot(vecs[i], cents[c]); sim >= bestSim {
						best, bestSim = c, sim
					}
				}
				if !first && assign[i] != best {
					changed.Store(true)
				}
				assign[i] = best
			}
		})
		if !first && !changed.Load() {
			break
		}
		counts := make([]int, k)
		for c := range cents {
			cents[c] = make([]float64, stride)
		}
		for i, c := range assign {
			if c < 0 {
				continue
			}
			for d, x := range vecs[i] {
				cents[c][d] += x
			}
			counts[c]++
		}
		for c := range cents {
			if counts[c] == 0 {
				alive[c] = false // dead centroid
				continue
			}
			normalize(cents[c])
		}
	}
	return assign
}

// SimplifiedSilhouette computes the centroid-based silhouette per cluster:
// a(i) = distance to own centroid, b(i) = distance to nearest other centroid
// (1 when there is none), s(i) = (b−a)/max(a,b), averaged per cluster, under
// cosine distance 1−cos. Unassigned points (-1) are skipped.
func SimplifiedSilhouette(vecs [][]float64, assign []int, k int) []float64 {
	if k == 0 {
		return nil
	}
	stride := 0
	for i, c := range assign {
		if c >= 0 && c < k {
			stride = max(stride, len(vecs[i]))
		}
	}
	cents := make([][]float64, k)
	counts := make([]int, k)
	for c := range cents {
		cents[c] = make([]float64, stride)
	}
	for i, c := range assign {
		if c < 0 || c >= k {
			continue
		}
		for d, x := range vecs[i] {
			cents[c][d] += x
		}
		counts[c]++
	}
	live := 0
	for c := range cents {
		if counts[c] > 0 {
			normalize(cents[c])
			live++
		}
	}
	nchunks := numChunks(len(assign), silChunk)
	partial := make([][]float64, nchunks)
	forEachChunk(len(assign), silChunk, func(ci, lo, hi int) {
		sums := make([]float64, k)
		for i := lo; i < hi; i++ {
			c := assign[i]
			if c < 0 || c >= k {
				continue
			}
			a := 1 - Dot(vecs[i], cents[c])
			b := 2.0
			if live < 2 {
				b = 1 // no other cluster: treat as max cosine distance
			} else {
				for o := range cents {
					if o == c || counts[o] == 0 {
						continue
					}
					if d := 1 - Dot(vecs[i], cents[o]); d < b {
						b = d
					}
				}
			}
			den := max(a, b)
			if den == 0 {
				sums[c] += 1
				continue
			}
			sums[c] += (b - a) / den
		}
		partial[ci] = sums
	})
	out := make([]float64, k)
	for c := range out {
		var sum float64
		for _, part := range partial {
			sum += part[c]
		}
		if counts[c] > 0 {
			out[c] = sum / float64(counts[c])
		}
	}
	return out
}

// forEachChunk partitions [0, n) into fixed chunks of size chunk (the final
// chunk may be short) and runs fn(chunkIndex, lo, hi) for each. Chunk
// boundaries depend only on n and chunk, so per-chunk partial results merged
// in chunk-index order are identical under any worker count — the building
// block for deterministic parallel reductions over floating-point data.
func forEachChunk(n, chunk int, fn func(ci, lo, hi int)) {
	chunk = max(chunk, 1)
	parallel.ForEach(numChunks(n, chunk), func(ci int) {
		lo := ci * chunk
		fn(ci, lo, min(lo+chunk, n))
	})
}

// numChunks returns the number of chunks forEachChunk will produce, for
// callers pre-sizing per-chunk accumulators.
func numChunks(n, chunk int) int {
	chunk = max(chunk, 1)
	return (n + chunk - 1) / chunk
}

// TestForEachChunkBoundariesDeterministic is the oracle's load-bearing
// invariant: the chunk partition depends only on (n, chunk), never on the
// worker count, so per-chunk partial results merged in chunk order are
// bit-identical under any GOMAXPROCS.
func TestForEachChunkBoundariesDeterministic(t *testing.T) {
	capture := func(procs, n, chunk int) []string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		bounds := make([]string, numChunks(n, chunk))
		forEachChunk(n, chunk, func(ci, lo, hi int) {
			bounds[ci] = fmt.Sprintf("%d:%d-%d", ci, lo, hi)
		})
		return bounds
	}
	for _, tc := range []struct{ n, chunk int }{
		{0, 256}, {1, 256}, {255, 256}, {256, 256}, {257, 256}, {1000, 256}, {1000, 1}, {7, 3}, {5, 0},
	} {
		seq := capture(1, tc.n, tc.chunk)
		par := capture(8, tc.n, tc.chunk)
		if len(seq) != len(par) {
			t.Fatalf("n=%d chunk=%d: %d chunks sequential, %d parallel", tc.n, tc.chunk, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("n=%d chunk=%d: chunk %d bounds %q vs %q", tc.n, tc.chunk, i, seq[i], par[i])
			}
		}
		// Boundaries must tile [0, n) exactly.
		want := 0
		for ci, s := range seq {
			var gotCi, lo, hi int
			if _, err := fmt.Sscanf(s, "%d:%d-%d", &gotCi, &lo, &hi); err != nil {
				t.Fatal(err)
			}
			if gotCi != ci || lo != want || hi < lo {
				t.Fatalf("n=%d chunk=%d: bad bounds %s (want lo=%d)", tc.n, tc.chunk, s, want)
			}
			want = hi
		}
		if want != tc.n {
			t.Fatalf("n=%d chunk=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.chunk, want, tc.n)
		}
	}
}

func TestNumChunksMatchesForEachChunk(t *testing.T) {
	for _, tc := range []struct{ n, chunk int }{{0, 4}, {1, 4}, {4, 4}, {5, 4}, {9, 0}} {
		var calls atomic.Int32
		forEachChunk(tc.n, tc.chunk, func(_, _, _ int) { calls.Add(1) })
		if got := int(calls.Load()); got != numChunks(tc.n, tc.chunk) {
			t.Fatalf("n=%d chunk=%d: %d calls, numChunks=%d", tc.n, tc.chunk, got, numChunks(tc.n, tc.chunk))
		}
	}
}

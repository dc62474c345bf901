package textsim

import (
	"sort"
	"sync/atomic"

	"malgraph/internal/parallel"
	"malgraph/internal/xrand"
)

// assignChunk is the fixed work-unit size for parallel assignment and
// silhouette loops. Chunk boundaries depend only on the input length, so
// per-chunk partial sums merged in chunk order are identical under any
// GOMAXPROCS — see internal/parallel.
const assignChunk = 256

// ClusterConfig parameterises the similarity clustering of §III-B step 4.
type ClusterConfig struct {
	// Threshold is the minimum cosine similarity for two packages to join
	// the same group (paper: 0.7).
	Threshold float64
	// MinSilhouette drops clusters whose silhouette score falls below this
	// value (paper: 0.3).
	MinSilhouette float64
	// MinSize drops clusters smaller than this (paper: subgraphs need ≥ 2).
	MinSize int
	// KMeansIters bounds the refinement iterations.
	KMeansIters int
	// LSHBands is the number of SimHash bands used for candidate pairing —
	// and therefore for the partition boundaries of LSHIndex: clusters never
	// span band-connected components, so the incremental engine re-clusters
	// one partition at a time under the same band count.
	LSHBands int
}

// DefaultClusterConfig returns the paper's parameters.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Threshold: 0.7, MinSilhouette: 0.3, MinSize: 2, KMeansIters: 8, LSHBands: 8}
}

// candidateParams resolves the (bands, threshold) pair defining the LSH
// candidate relation under this config, applying exactly the fallbacks
// ClusterItems applies (Threshold == 0 swaps in the full defaults; a
// non-positive band count then falls back the way Bands() does). LSHIndex
// and the clusterer both resolve through here, so partition boundaries and
// intra-partition candidate pairs can never disagree.
func (c ClusterConfig) candidateParams() (bands int, threshold float64) {
	if c.Threshold == 0 {
		c = DefaultClusterConfig()
	}
	bands = c.LSHBands
	if bands <= 0 {
		bands = 4 // the Bands() fallback
	}
	if bands > 16 {
		// The bucket keyspace tags the band index in the key's top nibble
		// (bandKey), and past 16 bands the 4-bit-wide bands stop being
		// selective anyway — clamp rather than silently collide band tags.
		bands = 16
	}
	return bands, c.Threshold
}

// bandKey returns the LSH bucket key of band bi under nBands bands: the
// band's fingerprint bits tagged with the band index in the top nibble.
// This is the single definition of the banded keyspace — ClusterItems'
// candidate generation and LSHIndex partitioning both resolve through it,
// which is what keeps "partition covers candidate pairs" a structural
// invariant rather than a convention.
func bandKey(fingerprint uint64, nBands, bi int) uint64 {
	width := 64 / nBands
	mask := uint64(1)<<uint(width) - 1
	return uint64(bi)<<60 | ((fingerprint >> uint(bi*width)) & mask)
}

// Item is one package entering the clustering stage.
type Item struct {
	ID     string
	Vector []float64
	Hash   uint64 // SimHash fingerprint
}

// Cluster is one similar-code group.
type Cluster struct {
	Members    []string // item IDs, sorted
	Centroid   []float64
	Silhouette float64
	IntraSim   float64 // mean pairwise-to-centroid cosine (paper reports 99.9%)
}

// floatArena hands out zeroed []float64 chunks from one growing backing
// buffer, so a burst of short-lived centroid/seed vectors costs one
// allocation amortised instead of one each. Chunks stay valid until reset.
type floatArena struct{ buf []float64 }

func (a *floatArena) grab(n int) []float64 {
	if len(a.buf)+n > cap(a.buf) {
		c := 2 * cap(a.buf)
		if c < n {
			c = n
		}
		if c < 256 {
			c = 256
		}
		// Old chunks stay alive through the slices already handed out.
		a.buf = make([]float64, 0, c)
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	s := a.buf[lo : lo+n : lo+n]
	clear(s)
	return s
}

func (a *floatArena) reset() { a.buf = a.buf[:0] }

// Scratch pools the per-call buffers of the clustering kernels — packed
// centroid matrices, assignment vectors, per-chunk silhouette partial sums,
// seed arenas — so repeated per-partition clustering (the incremental
// engine's steady state) doesn't re-allocate them on every call. A Scratch
// is not safe for concurrent use; pool one per worker. Slices returned by
// scratch-taking functions (KMeans assignments, silhouette scores) are valid
// only until the scratch is used again.
type Scratch struct {
	assign  []int
	liveIdx []int
	counts  []int
	alive   []bool
	parent  []int
	cents   []float64
	sums    []float64
	flat    []float64
	partial []float64
	silSums []float64
	sil     []float64
	pairs   []bucketPair
	vecs    [][]float64
	seeds   [][]float64
	arena   floatArena
}

// bucketPair is one (band key, item index) occurrence; sorted by key it
// reproduces the LSH bucket map without allocating it.
type bucketPair struct {
	key uint64
	idx int
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
		return *buf
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// ClusterItems groups items whose code bases are similar. The pipeline is:
//
//  1. Banded-LSH candidate generation over SimHash fingerprints.
//  2. Union–find merge of candidate pairs whose cosine ≥ Threshold.
//  3. Rescue merge of LSH-missed singletons into multi-member cores.
//  4. K-Means refinement seeded from the merged groups (k = #groups).
//  5. Simplified-silhouette filtering (< MinSilhouette dropped) and MinSize
//     filtering.
//
// The incremental engine applies this function per LSHIndex partition
// (verified band-candidate components) rather than per ecosystem: within a
// partition the function reproduces the partition's internal candidate pairs
// exactly, while the cross-partition interactions of a whole-ecosystem run
// (rescue merges into foreign cores, K-Means migration between families,
// silhouette contrast against foreign centroids) are deliberately given up —
// the banding relaxation that keeps append-time re-clustering O(partition).
// The partition structure is content-derived, so any ingest order reproduces
// the same per-partition outputs bit for bit.
//
// The result is deterministic for a fixed seed and input order.
func ClusterItems(items []Item, cfg ClusterConfig, rng *xrand.RNG) []Cluster {
	return ClusterItemsScratch(items, cfg, rng, nil)
}

// ClusterItemsScratch is ClusterItems with pooled buffers: passing a Scratch
// reuses its allocations across calls (nil behaves like ClusterItems). The
// returned clusters are freshly allocated and safe to retain.
func ClusterItemsScratch(items []Item, cfg ClusterConfig, rng *xrand.RNG, sc *Scratch) []Cluster {
	if len(items) == 0 {
		return nil
	}
	if cfg.Threshold == 0 {
		cfg = DefaultClusterConfig()
	}
	if sc == nil {
		sc = NewScratch()
	}

	parent := growInts(&sc.parent, len(items))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Step 1+2: LSH buckets → verified merges. Band keys land in one pooled
	// (key, item) pair list sorted by key — the bucket walk below sees the
	// same buckets in the same order a map+sorted-keys pass yields, without
	// a per-call map, per-bucket slices, or a Bands allocation per item.
	nb, _ := cfg.candidateParams() // cfg.Threshold is non-zero by now
	if cap(sc.pairs) < len(items)*nb {
		sc.pairs = make([]bucketPair, 0, len(items)*nb)
	}
	pairs := sc.pairs[:0]
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
		if len(ids) < 2 {
			continue
		}
		// Verify each member against the bucket's first root representative
		// chain; quadratic only within (small) buckets.
		for i := 1; i < len(ids); i++ {
			for j := 0; j < i; j++ {
				if find(ids[i].idx) == find(ids[j].idx) {
					continue
				}
				// Item vectors are L2-normalised (EmbedHashed invariant),
				// so Dot is their cosine.
				if Dot(items[ids[i].idx].Vector, items[ids[j].idx].Vector) >= cfg.Threshold {
					union(ids[i].idx, ids[j].idx)
				}
			}
		}
	}

	groups := make(map[int][]int)
	for i := range items {
		root := find(i)
		groups[root] = append(groups[root], i)
	}

	// Step 2b: rescue merge. Banded LSH can miss a variant whose fingerprint
	// drifted in every band (rare, but real for token-poor packages). Compare
	// each small group's centroid against the centroids of multi-member
	// cores; merge on cosine ≥ Threshold. Cores are few, so this stays far
	// from quadratic while restoring recall.
	sc.arena.reset()
	groups = rescueMerge(items, groups, cfg.Threshold, sc)

	// Step 3: K-Means refinement seeded at group centroids. Seed vectors live
	// in the scratch arena — KMeans copies them into its centroid matrix
	// immediately, so they only need to survive until then.
	sc.arena.reset()
	if cap(sc.seeds) < len(groups) {
		sc.seeds = make([][]float64, 0, len(groups))
	}
	seeds := sc.seeds[:0]
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		seeds = append(seeds, centroidArena(&sc.arena, items, groups[root]))
	}
	if cap(sc.vecs) < len(items) {
		sc.vecs = make([][]float64, len(items))
	}
	vecs := sc.vecs[:len(items)]
	for i := range items {
		vecs[i] = items[i].Vector
	}
	assign := kmeansWith(sc, vecs, seeds, cfg.KMeansIters, cfg.Threshold)
	_ = rng // reserved for randomised restarts; kept so every partition
	// retains its own derived stream if K-Means ever grows a stochastic mode

	// Step 4: silhouette + size filtering.
	byCluster := make(map[int][]int)
	for i, c := range assign {
		if c >= 0 {
			byCluster[c] = append(byCluster[c], i)
		}
	}
	sil := simplifiedSilhouetteWith(sc, vecs, assign, len(seeds))
	var out []Cluster
	cids := make([]int, 0, len(byCluster))
	for c := range byCluster {
		cids = append(cids, c)
	}
	sort.Ints(cids)
	for _, c := range cids {
		members := byCluster[c]
		if len(members) < cfg.MinSize {
			continue
		}
		if sil[c] < cfg.MinSilhouette {
			continue
		}
		cent := centroid(items, members)
		ids := make([]string, 0, len(members))
		var intra float64
		for _, m := range members {
			ids = append(ids, items[m].ID)
			intra += Dot(items[m].Vector, cent) // both sides L2-normalised
		}
		sort.Strings(ids)
		out = append(out, Cluster{
			Members:    ids,
			Centroid:   cent,
			Silhouette: sil[c],
			IntraSim:   intra / float64(len(members)),
		})
	}
	return out
}

func rescueMerge(items []Item, groups map[int][]int, threshold float64, sc *Scratch) map[int][]int {
	type core struct {
		root     int
		centroid []float64
	}
	var cores []core
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		if len(groups[root]) >= 2 {
			cores = append(cores, core{root: root, centroid: centroidArena(&sc.arena, items, groups[root])})
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
		c := centroidInto(sc.sums, items, members)
		sc.sums = c[:0]
		bestIdx, bestSim := -1, threshold
		for ci := range cores {
			if cores[ci].root == root {
				continue
			}
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

// centroid returns a freshly allocated, L2-normalised mean of the members'
// vectors — the escape-safe variant used for retained Cluster centroids.
func centroid(items []Item, members []int) []float64 {
	return centroidInto(nil, items, members)
}

// centroidInto computes the centroid into dst's backing array when capacity
// suffices. Vectors may be zero-tail-trimmed (TrimZeroTail) to different
// lengths; the centroid is sized for the longest member.
func centroidInto(dst []float64, items []Item, members []int) []float64 {
	if len(members) == 0 {
		return nil
	}
	dim := 0
	for _, m := range members {
		if len(items[m].Vector) > dim {
			dim = len(items[m].Vector)
		}
	}
	if cap(dst) < dim {
		dst = make([]float64, dim)
	} else {
		dst = dst[:dim]
		clear(dst)
	}
	for _, m := range members {
		for d, x := range items[m].Vector {
			dst[d] += x
		}
	}
	normalize(dst)
	return dst
}

// centroidArena is centroidInto backed by an arena chunk, for bursts of
// centroids that must coexist (seeds, rescue cores) but not outlive the call.
func centroidArena(a *floatArena, items []Item, members []int) []float64 {
	if len(members) == 0 {
		return nil
	}
	dim := 0
	for _, m := range members {
		if len(items[m].Vector) > dim {
			dim = len(items[m].Vector)
		}
	}
	dst := a.grab(dim)
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
// below threshold are left unassigned (-1) — K-Means here acts as refinement
// of an over-complete seeding rather than discovery from random starts, so k
// equals len(seeds). Seeds and vectors must be L2-normalised (the
// EmbedHashed invariant); assignment uses Dot as the cosine.
func KMeans(vecs [][]float64, seeds [][]float64, iters int, threshold float64) []int {
	return kmeansWith(nil, vecs, seeds, iters, threshold)
}

// kmeansWith is the scratch-pooled K-Means core. Centroids live in a packed
// k×stride matrix (zero-padded rows, which cannot change any Dot value), so
// the O(n·k·d) assignment scan walks memory sequentially and the per-call
// allocations collapse into reusable scratch buffers.
//
// The assignment loop — the clustering stage's dominant kernel — fans out
// across fixed-size chunks; each chunk writes disjoint assign entries, so the
// result is identical under any worker count. Centroid recomputation stays
// sequential to keep its floating-point accumulation order fixed.
func kmeansWith(sc *Scratch, vecs [][]float64, seeds [][]float64, iters int, threshold float64) []int {
	if sc == nil {
		sc = NewScratch()
	}
	k := len(seeds)
	assign := growInts(&sc.assign, len(vecs))
	if k == 0 {
		for i := range assign {
			assign[i] = -1
		}
		return assign
	}
	stride := 0
	for _, s := range seeds {
		if len(s) > stride {
			stride = len(s)
		}
	}
	// Recomputed centroids can outgrow every seed when vectors are
	// zero-tail-trimmed to different lengths; the packing stride must cover
	// the longest vector a centroid could absorb.
	for _, v := range vecs {
		if len(v) > stride {
			stride = len(v)
		}
	}
	cents := growFloats(&sc.cents, k*stride)
	for i, s := range seeds {
		copy(cents[i*stride:], s)
	}
	alive := growBools(&sc.alive, k)
	for c := range alive {
		alive[c] = true
	}
	counts := growInts(&sc.counts, k)
	if cap(sc.liveIdx) < k {
		sc.liveIdx = make([]int, 0, k)
	}
	if cap(sc.flat) < k*stride {
		sc.flat = make([]float64, 0, k*stride)
	}
	for iter := 0; iter < max(iters, 1); iter++ {
		liveIdx := sc.liveIdx[:0]
		flat := sc.flat[:0]
		for c := 0; c < k; c++ {
			if !alive[c] {
				continue
			}
			liveIdx = append(liveIdx, c)
			flat = append(flat, cents[c*stride:(c+1)*stride]...)
		}
		first := iter == 0
		var changed atomic.Bool
		parallel.ForEachChunk(len(vecs), assignChunk, func(_, lo, hi int) {
			chunkChanged := false
			for i := lo; i < hi; i++ {
				v := vecs[i]
				best, bestSim := -1, threshold
				for j, c := range liveIdx {
					if sim := Dot(v, flat[j*stride:j*stride+stride]); sim >= bestSim {
						best, bestSim = c, sim
					}
				}
				if !first && assign[i] != best {
					chunkChanged = true
				}
				assign[i] = best
			}
			if chunkChanged {
				changed.Store(true)
			}
		})
		if !first && !changed.Load() {
			break
		}
		// Recompute centroids into the spare matrix, then swap it in.
		sums := growFloats(&sc.sums, k*stride)
		for c := range counts {
			counts[c] = 0
		}
		for i, c := range assign {
			if c < 0 {
				continue
			}
			row := sums[c*stride : (c+1)*stride]
			for d, x := range vecs[i] {
				row[d] += x
			}
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				alive[c] = false // dead centroid
				continue
			}
			normalize(sums[c*stride : (c+1)*stride])
		}
		cents = sums
		sc.cents, sc.sums = sc.sums, sc.cents
	}
	return assign
}

// SimplifiedSilhouette computes the centroid-based silhouette per cluster:
// a(i) = distance to own centroid, b(i) = distance to nearest other centroid,
// s(i) = (b−a)/max(a,b), averaged per cluster. (The exact silhouette is
// O(n²); the simplified variant is the standard corpus-scale approximation
// and preserves the paper's "drop clusters with silhouette < 0.3" filter.)
// Distance is cosine distance 1−cos. Unassigned points (-1) are skipped.
// Singleton-cluster silhouette is defined as 1 (tight by construction).
func SimplifiedSilhouette(vecs [][]float64, assign []int, k int) []float64 {
	return simplifiedSilhouetteWith(nil, vecs, assign, k)
}

// simplifiedSilhouetteWith is the scratch-pooled core. Centroids are packed
// into a k×stride matrix as in kmeansWith, so the b(i) scan over all other
// centroids is a sequential walk. The returned slice is scratch-backed.
func simplifiedSilhouetteWith(sc *Scratch, vecs [][]float64, assign []int, k int) []float64 {
	if k == 0 {
		return nil
	}
	if sc == nil {
		sc = NewScratch()
	}
	stride := 0
	for i, c := range assign {
		if c >= 0 && c < k && len(vecs[i]) > stride {
			stride = len(vecs[i])
		}
	}
	cents := growFloats(&sc.cents, k*stride)
	counts := growInts(&sc.counts, k)
	for i, c := range assign {
		if c < 0 || c >= k {
			continue
		}
		row := cents[c*stride : (c+1)*stride]
		for d, x := range vecs[i] {
			row[d] += x
		}
		counts[c]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			normalize(cents[c*stride : (c+1)*stride])
		}
	}
	// Pack live centroids contiguously so the b(i) scan is sequential.
	if cap(sc.liveIdx) < k {
		sc.liveIdx = make([]int, 0, k)
	}
	if cap(sc.flat) < k*stride {
		sc.flat = make([]float64, 0, k*stride)
	}
	liveIdx := sc.liveIdx[:0]
	flat := sc.flat[:0]
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		liveIdx = append(liveIdx, c)
		flat = append(flat, cents[c*stride:(c+1)*stride]...)
	}
	live := len(liveIdx)
	// The per-point a/b scan is O(n·k·d) — the other dominant kernel next
	// to K-Means assignment. Points are scored in parallel over fixed
	// chunks; per-chunk partial sums land in disjoint rows of one pooled
	// matrix and are merged in chunk-index order so the floating-point
	// totals match a sequential run bit for bit.
	nchunks := parallel.NumChunks(len(assign), assignChunk)
	partial := growFloats(&sc.partial, nchunks*k)
	parallel.ForEachChunk(len(assign), assignChunk, func(ci, lo, hi int) {
		sums := partial[ci*k : (ci+1)*k]
		for i := lo; i < hi; i++ {
			c := assign[i]
			if c < 0 || c >= k || counts[c] == 0 {
				continue
			}
			// Centroids are L2-normalised above; vecs hold the EmbedHashed
			// invariant, so Dot is their cosine.
			a := 1 - Dot(vecs[i], cents[c*stride:(c+1)*stride])
			b := 2.0
			if live < 2 {
				b = 1 // no other cluster: treat as max cosine distance
			} else {
				for j, o := range liveIdx {
					if o == c {
						continue
					}
					if d := 1 - Dot(vecs[i], flat[j*stride:j*stride+stride]); d < b {
						b = d
					}
				}
			}
			den := a
			if b > den {
				den = b
			}
			if den == 0 {
				sums[c] += 1
				continue
			}
			sums[c] += (b - a) / den
		}
	})
	sums := growFloats(&sc.silSums, k)
	for ci := 0; ci < nchunks; ci++ {
		part := partial[ci*k : (ci+1)*k]
		for c, s := range part {
			sums[c] += s
		}
	}
	out := growFloats(&sc.sil, k)
	for c := range out {
		if counts[c] > 0 {
			out[c] = sums[c] / float64(counts[c])
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

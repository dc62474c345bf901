package textsim

import "sort"

// silChunk is the item-chunk size of the silhouette sum: per-chunk partial
// sums are added in chunk order, the summation order every persisted
// silhouette was computed in.
const silChunk = 256

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
// ClusterPartition applies (Threshold == 0 swaps in the full defaults; a
// non-positive band count then falls back to 4 bands). LSHIndex resolves
// through here, so partitions and the clustering of each partition always
// use the same threshold.
func (c ClusterConfig) candidateParams() (bands int, threshold float64) {
	if c.Threshold == 0 {
		c = DefaultClusterConfig()
	}
	bands = c.LSHBands
	if bands <= 0 {
		bands = 4
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
// This is the single definition of the banded keyspace LSHIndex partitions
// by.
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
	Silhouette float64
}

// ClusterPartition clusters one LSHIndex partition (§III-B step 4) and
// reports whether its cluster survives the filters. A partition is a
// connected component of "shares a SimHash band ∧ cosine ≥ Threshold", so
// candidate generation and merging inside it always yield the whole
// partition as one group, and K-Means refines that group's single centroid:
//
//  1. Seed the centroid at the normalised mean of every item.
//  2. Up to KMeansIters times, assign each item whose cosine to the
//     centroid clears Threshold, stop when the assignment no longer
//     changes, and re-centre on the assigned items.
//  3. Score the simplified silhouette with no second centroid (b = 1) and
//     drop the cluster below MinSize members or MinSilhouette.
//
// Cross-partition interactions of a whole-ecosystem run (K-Means migration
// between families, silhouette contrast against foreign centroids) are
// deliberately given up: that banding relaxation keeps append-time
// re-clustering O(partition), and since partitions are content-derived,
// any ingest order reproduces the same cluster bit for bit. Items must hold
// the EmbedHashed L2 invariant, so Dot is their cosine.
func ClusterPartition(items []Item, cfg ClusterConfig) (Cluster, bool) {
	if len(items) == 0 {
		return Cluster{}, false
	}
	if cfg.Threshold == 0 {
		cfg = DefaultClusterConfig()
	}
	// The centroid spans the longest (zero-tail-trimmed) vector of the
	// partition; Dot reads only the overlap, so padding changes no cosine.
	dim := 0
	for _, it := range items {
		dim = max(dim, len(it.Vector))
	}
	// The seed centroid is the mean of every item, so the assignment starts
	// as all items: a first pass that keeps them all has converged.
	cent := make([]float64, dim)
	in := make([]bool, len(items))
	for i := range in {
		in[i] = true
	}
	meanInto(cent, items, in)
	for iter := 0; iter < max(cfg.KMeansIters, 1); iter++ {
		changed, n := false, 0
		for i, it := range items {
			ok := Dot(it.Vector, cent) >= cfg.Threshold
			changed = changed || ok != in[i]
			in[i] = ok
			if ok {
				n++
			}
		}
		if n == 0 {
			return Cluster{}, false // every item fell below the threshold
		}
		if !changed {
			break
		}
		meanInto(cent, items, in)
	}
	// cent is now the normalised mean of exactly the assigned members. The
	// silhouette adds each silChunk items' sum to the total in chunk order.
	var ids []string
	var sil, chunkSil float64
	for i, it := range items {
		if i%silChunk == 0 {
			sil += chunkSil
			chunkSil = 0
		}
		if !in[i] {
			continue
		}
		ids = append(ids, it.ID)
		// Simplified silhouette against no other centroid: a = 1 − cos,
		// b = 1, s = (b − a) / max(a, b).
		a := 1 - Dot(it.Vector, cent)
		chunkSil += (1 - a) / max(a, 1)
	}
	sil = (sil + chunkSil) / float64(len(ids))
	if len(ids) < cfg.MinSize || sil < cfg.MinSilhouette {
		return Cluster{}, false
	}
	sort.Strings(ids)
	return Cluster{Members: ids, Silhouette: sil}, true
}

// meanInto overwrites cent with the L2-normalised sum of the selected
// items' vectors, added in item order.
func meanInto(cent []float64, items []Item, in []bool) {
	clear(cent)
	for i, it := range items {
		if in[i] {
			for d, x := range it.Vector {
				cent[d] += x
			}
		}
	}
	normalize(cent)
}

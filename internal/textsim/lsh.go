package textsim

import "sort"

// LSHIndex maintains the verified similarity-partition structure of a
// growing item corpus. Two items belong to the same partition when they are
// connected, transitively, by *verified candidate pairs*: fingerprints
// colliding in at least one SimHash band (the LSH candidate relation) whose
// vectors also clear the cosine threshold (the verification). Partitions are
// therefore the connected components of the verified-similarity graph — real
// code families with bounded size — and ClusterPartition clusters each one
// as a single group.
//
// Verification is what keeps partitions meaningful at scale: with b bands of
// 64/b bits, raw band collisions percolate once an ecosystem outgrows the
// 2^(64/b) keyspace per band (a few thousand items at the default b = 8),
// fusing the whole ecosystem into one partition and re-introducing the
// O(ecosystem) append cost the partitioning exists to avoid. The verified
// relation is pairwise content — "shares a band AND cosine ≥ threshold" —
// so partitions stay family-sized however large the corpus grows.
//
// Identity is content-derived throughout: a partition's canonical key is the
// lexicographically smallest member ID, and membership depends only on the
// (id, fingerprint, vector) set — never on insertion order. Every pair of
// co-bucketed items is verified when the later of the two arrives (unless it
// is already connected), however large the bucket, so the partitions are the
// components of the whole verified relation. Adding the same items in any
// order yields the same partitions with the same keys, which is what lets
// batch-partitioned ingest reproduce a one-shot build exactly.
//
// An LSHIndex is not safe for concurrent use; the engine serializes access
// under its ingest lock and hands immutable member snapshots to workers.
type LSHIndex struct {
	bands     int
	threshold float64
	slot      map[string]int // item ID → slot
	ids       []string       // slot → item ID
	vecs      [][]float64    // slot → embedding (held by reference)
	// Union-find over slots (union by size, path compression). minSlot and
	// members are maintained at roots only.
	parent  []int
	size    []int
	minSlot []int
	members [][]int
	// buckets lists the member slots per band key; a new item verifies
	// against every co-bucketed item and unions with the ones that clear
	// the threshold.
	buckets map[uint64][]int
	// retired collects canonical keys dethroned by merges since the last
	// DrainRetired — the signal that their cached per-partition state now
	// lives under a different (smaller) key.
	retired map[string]bool
}

// NewLSHIndex creates an empty index whose candidate relation — band count
// and cosine verification threshold — follows cfg with the zero-value
// fallbacks ClusterPartition applies (ClusterConfig.candidateParams).
// Cluster the partitions with the same cfg.
func NewLSHIndex(cfg ClusterConfig) *LSHIndex {
	bands, threshold := cfg.candidateParams()
	return &LSHIndex{
		bands:     bands,
		threshold: threshold,
		slot:      make(map[string]int),
		buckets:   make(map[uint64][]int),
		retired:   make(map[string]bool),
	}
}

// Bands returns the band count the index buckets with.
func (x *LSHIndex) Bands() int { return x.bands }

// Len returns the number of indexed items.
func (x *LSHIndex) Len() int { return len(x.ids) }

func (x *LSHIndex) find(s int) int {
	for x.parent[s] != s {
		x.parent[s] = x.parent[x.parent[s]]
		s = x.parent[s]
	}
	return s
}

// union merges the partitions of a and b, keeping the lexicographically
// smaller canonical key and retiring the larger one.
func (x *LSHIndex) union(a, b int) {
	ra, rb := x.find(a), x.find(b)
	if ra == rb {
		return
	}
	if x.size[ra] < x.size[rb] {
		ra, rb = rb, ra
	}
	// ra absorbs rb. The surviving canonical key is the smaller of the two;
	// the other was a partition key until now and is retired.
	winMin, loseMin := x.minSlot[ra], x.minSlot[rb]
	if x.ids[loseMin] < x.ids[winMin] {
		winMin, loseMin = loseMin, winMin
	}
	x.retired[x.ids[loseMin]] = true
	x.parent[rb] = ra
	x.size[ra] += x.size[rb]
	x.minSlot[ra] = winMin
	x.members[ra] = append(x.members[ra], x.members[rb]...)
	x.members[rb] = nil
}

// Add indexes one item, verifying it against every item it shares a band
// bucket with and merging its partition with each verified match. The vector
// is retained by reference (items are immutable once ingested). Re-adding a
// known ID is a no-op. Cost is O(bands · bucket load) union-find lookups and
// at most that many dot products. A degenerate bucket of near-identical items costs
// lookups rather than dot products: members already in the new item's
// partition are skipped.
func (x *LSHIndex) Add(id string, hash uint64, vec []float64) {
	if _, ok := x.slot[id]; ok {
		return
	}
	s := len(x.ids)
	x.slot[id] = s
	x.ids = append(x.ids, id)
	x.vecs = append(x.vecs, vec)
	x.parent = append(x.parent, s)
	x.size = append(x.size, 1)
	x.minSlot = append(x.minSlot, s)
	x.members = append(x.members, []int{s})
	// bands is clamped to [1, 16] by candidateParams, so bandKey's band tag
	// fits the top nibble.
	for bi := 0; bi < x.bands; bi++ {
		key := bandKey(hash, x.bands, bi)
		for _, m := range x.buckets[key] {
			if x.find(m) == x.find(s) {
				continue
			}
			// Vectors hold the EmbedHashed L2 invariant: Dot is cosine.
			if Dot(vec, x.vecs[m]) >= x.threshold {
				x.union(s, m)
			}
		}
		x.buckets[key] = append(x.buckets[key], s)
	}
}

// Root returns the canonical partition key (smallest member ID) for an
// indexed item.
func (x *LSHIndex) Root(id string) (string, bool) {
	s, ok := x.slot[id]
	if !ok {
		return "", false
	}
	return x.ids[x.minSlot[x.find(s)]], true
}

// Members returns the sorted member IDs of the partition whose canonical key
// is given, or nil when the key is not (or no longer) canonical.
func (x *LSHIndex) Members(key string) []string {
	s, ok := x.slot[key]
	if !ok {
		return nil
	}
	r := x.find(s)
	if x.ids[x.minSlot[r]] != key {
		return nil
	}
	out := make([]string, 0, len(x.members[r]))
	for _, m := range x.members[r] {
		out = append(out, x.ids[m])
	}
	sort.Strings(out)
	return out
}

// Partitions returns every canonical partition key, sorted.
func (x *LSHIndex) Partitions() []string {
	out := make([]string, 0, len(x.ids))
	for s := range x.ids {
		if x.find(s) == s {
			out = append(out, x.ids[x.minSlot[s]])
		}
	}
	sort.Strings(out)
	return out
}

// DrainRetired returns the canonical keys dethroned by merges since the last
// drain, sorted, and clears the set. A caller caching per-partition state by
// canonical key drops these entries; their members are always covered by a
// currently-dirty partition, because keys only retire when a newly added item
// bridges two partitions.
func (x *LSHIndex) DrainRetired() []string {
	if len(x.retired) == 0 {
		return nil
	}
	out := make([]string, 0, len(x.retired))
	for k := range x.retired {
		out = append(out, k)
	}
	sort.Strings(out)
	x.retired = make(map[string]bool)
	return out
}

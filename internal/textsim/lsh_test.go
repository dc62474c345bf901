package textsim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"malgraph/internal/xrand"
)

// lshFixture returns items with known band structure: a1/a2/b1/bridge share
// one code direction (verification passes), c1 is orthogonal; a* and b1
// collide in no band until bridge links both.
func lshFixture() []Item {
	same := []float64{1, 0}
	return []Item{
		{ID: "a1", Hash: 0x1111111111111111, Vector: same},
		{ID: "a2", Hash: 0x1111111111111111, Vector: same}, // same partition as a1
		{ID: "b1", Hash: 0x2222222222222222, Vector: same}, // no shared band with a*
		{ID: "c1", Hash: 0xF0F0F0F0F0F0F0F0, Vector: []float64{0, 1}},
		{ID: "bridge", Hash: 0x2222222211111111, Vector: same}, // low bands hit a*, high bands hit b1
	}
}

// partitions returns every canonical partition key of x, sorted.
func partitions(x *LSHIndex) []string {
	out := make([]string, 0, len(x.items))
	for s := range x.items {
		if x.find(s) == s {
			out = append(out, x.items[x.minSlot[s]].ID)
		}
	}
	sort.Strings(out)
	return out
}

func addAll(x *LSHIndex, items []Item) {
	for _, it := range items {
		x.Add(it.ID, it.Hash, it.Vector)
	}
}

func TestLSHIndexPartitions(t *testing.T) {
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, lshFixture()[:4]) // no bridge yet
	if got := partitions(x); !reflect.DeepEqual(got, []string{"a1", "b1", "c1"}) {
		t.Fatalf("partitions = %v", got)
	}
	if got := x.Members("a1"); !reflect.DeepEqual(got, []string{"a1", "a2"}) {
		t.Fatalf("members(a1) = %v", got)
	}
	if got := x.Members("a2"); got != nil {
		t.Fatalf("a2 is not canonical, members = %v", got)
	}
	if root, ok := x.Root("a2"); !ok || root != "a1" {
		t.Fatalf("root(a2) = %q, %v", root, ok)
	}
	if _, ok := x.Root("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestLSHIndexMergeRetiresKeys(t *testing.T) {
	fixture := lshFixture()
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, fixture[:4])
	x.Add(fixture[4].ID, fixture[4].Hash, fixture[4].Vector)
	// bridge connects {a1,a2} with {b1}: one partition keyed a1 survives.
	if got := partitions(x); !reflect.DeepEqual(got, []string{"a1", "c1"}) {
		t.Fatalf("partitions after bridge = %v", got)
	}
	if got := x.Members("a1"); !reflect.DeepEqual(got, []string{"a1", "a2", "b1", "bridge"}) {
		t.Fatalf("merged members = %v", got)
	}
	if got := x.Members("b1"); got != nil {
		t.Fatalf("b1 must stop being canonical on merge, members = %v", got)
	}
	// Re-adding a known ID is a no-op.
	x.Add("bridge", 0xFFFFFFFFFFFFFFFF, []float64{1, 0})
	if got := partitions(x); !reflect.DeepEqual(got, []string{"a1", "c1"}) {
		t.Fatalf("re-add changed partitions: %v", got)
	}
}

// TestLSHIndexItemStore pins the index as the store of its items: Item
// returns what Add was given, bit-equal; a re-added ID keeps its first item;
// Items lists every item sorted by ID.
func TestLSHIndexItemStore(t *testing.T) {
	fixture := lshFixture()
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, fixture)
	for _, want := range fixture {
		got, ok := x.Item(want.ID)
		if !ok || got.ID != want.ID || got.Hash != want.Hash || len(got.Vector) != len(want.Vector) {
			t.Fatalf("Item(%s) = %+v, %v; want %+v", want.ID, got, ok, want)
		}
		for i := range want.Vector {
			if math.Float64bits(got.Vector[i]) != math.Float64bits(want.Vector[i]) {
				t.Fatalf("Item(%s).Vector = %v, want %v", want.ID, got.Vector, want.Vector)
			}
		}
	}
	if _, ok := x.Item("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}

	first := fixture[0]
	x.Add(first.ID, ^first.Hash, []float64{0, 1})
	if x.Len() != len(fixture) {
		t.Fatalf("Len after re-add = %d, want %d", x.Len(), len(fixture))
	}
	if got, _ := x.Item(first.ID); got.Hash != first.Hash || !reflect.DeepEqual(got.Vector, first.Vector) {
		t.Fatalf("re-add replaced the first item: %+v", got)
	}

	items := x.Items()
	if len(items) != len(fixture) {
		t.Fatalf("Items = %d items, want %d", len(items), len(fixture))
	}
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].ID < items[j].ID }) {
		t.Fatalf("Items not sorted by ID: %v", items)
	}
}

// TestLSHIndexVerification pins what keeps partitions family-sized at scale:
// a band collision alone (here: identical fingerprints) must NOT merge two
// items whose vectors fail the cosine threshold.
func TestLSHIndexVerification(t *testing.T) {
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	x.Add("p", 0x1234123412341234, []float64{1, 0})
	x.Add("q", 0x1234123412341234, []float64{0, 1}) // every band collides, cosine 0
	if got := partitions(x); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Fatalf("unverified collision merged partitions: %v", got)
	}
	x.Add("r", 0x1234123412341234, []float64{1, 0}) // verifies against p only
	if got := x.Members("p"); !reflect.DeepEqual(got, []string{"p", "r"}) {
		t.Fatalf("verified pair not merged: %v", got)
	}
}

// degenerateBucket returns more than 512 items sharing one fingerprint, so
// every band of every item lands in the same bucket, with mutually
// orthogonal vectors (no pair verifies), plus "tail", which verifies only
// against the member with the largest ID.
func degenerateBucket() []Item {
	const n = 520
	items := make([]Item, 0, n+1)
	for i := 0; i < n; i++ {
		vec := make([]float64, i+1) // the i-th unit vector, zero tail trimmed
		vec[i] = 1
		items = append(items, Item{ID: fmt.Sprintf("d%04d", i), Hash: 0xABCDABCDABCDABCD, Vector: vec})
	}
	last := items[n-1]
	return append(items, Item{ID: "tail", Hash: last.Hash, Vector: last.Vector})
}

// partitionsOf adds items in order to a fresh index and returns its
// partitions keyed by canonical key.
func partitionsOf(items []Item) map[string][]string {
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, items)
	got := make(map[string][]string)
	for _, key := range partitions(x) {
		got[key] = x.Members(key)
	}
	return got
}

// TestLSHIndexOrderIndependence is the content-derivation contract: any
// insertion order yields identical partitions, canonical keys and members —
// also when a band bucket holds hundreds of items, each of which must still
// be verified against every co-bucketed one.
func TestLSHIndexOrderIndependence(t *testing.T) {
	items := lshFixture()
	var want map[string][]string
	for trial := 0; trial < 10; trial++ {
		order := make([]Item, len(items))
		copy(order, items)
		rng := xrand.New(uint64(trial + 1))
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		got := partitionsOf(order)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: partitions differ:\n got %v\nwant %v", trial, got, want)
		}
	}

	// The largest-ID member and "tail" first, while the bucket is small,
	// then the rest; and every member first, "tail" last, when the bucket
	// is full. Both orders must join the pair.
	deg := degenerateBucket()
	n := len(deg)
	early := partitionsOf(append([]Item{deg[n-2], deg[n-1]}, deg[:n-2]...))
	late := partitionsOf(deg)
	if !reflect.DeepEqual(late, early) {
		t.Fatalf("degenerate bucket: %d partitions with tail added last, %d with it added early", len(late), len(early))
	}
	pair := []string{deg[n-2].ID, "tail"}
	if got := late[pair[0]]; !reflect.DeepEqual(got, pair) {
		t.Fatalf("degenerate bucket: members(%s) = %v, want %v", pair[0], got, pair)
	}
	if len(late) != n-1 {
		t.Fatalf("degenerate bucket: %d partitions, want %d", len(late), n-1)
	}
}

// TestLSHPartitionsCoverClusters pins the structural invariant the engine's
// partial re-clustering rests on: for a family-structured corpus, the
// general whole-corpus clusters never span verified partitions, and
// clustering each partition separately recovers the same cluster
// memberships. (Silhouette values may legitimately differ — a lone-cluster
// partition scores its separation against no neighbours — which is the
// documented banding relaxation; the engine's pinned contract is
// incremental == one-shot through the same partitioned path, tested at the
// core and API layers.)
func TestLSHPartitionsCoverClusters(t *testing.T) {
	items := makeItems(t, 5, 4) // 5 families × 4 variants (textsim_test.go)
	cfg := DefaultClusterConfig()
	whole := ClusterItems(items, cfg)
	if len(whole) == 0 {
		t.Fatal("fixture produced no clusters")
	}
	x := NewLSHIndex(cfg)
	addAll(x, items)
	for _, c := range whole {
		root, _ := x.Root(c.Members[0])
		for _, m := range c.Members {
			if r, ok := x.Root(m); !ok || r != root {
				t.Fatalf("cluster spans partitions: %v", c.Members)
			}
		}
	}
	members := func(cs []Cluster) map[string]bool {
		m := make(map[string]bool)
		for _, c := range cs {
			m[fmt.Sprintf("%v", c.Members)] = true
		}
		return m
	}
	if ws, ss := members(whole), members(clusterAll(items, cfg)); !reflect.DeepEqual(ws, ss) {
		t.Errorf("cluster memberships differ:\n whole %v\n split %v", ws, ss)
	}
}

package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// The queries below serve only the tests: production code reads an edge
// through EdgeAttrs and adjacency through Neighbors.

// HasNode reports whether id is a node.
func (g *Graph) HasNode(id string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes.Get(id)
	return ok
}

// HasEdge reports whether an edge of type t joins the two nodes (in either
// direction for undirected types; exactly from→to for Dependency).
func (g *Graph) HasEdge(from, to string, t EdgeType) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.edgeSeen.Get(edgeKey(t, from, to))
	return ok
}

// OutNeighbors returns IDs reachable from id following directed edges of type
// t (From==id). For undirected edge types this is a subset of Neighbors.
func (g *Graph) OutNeighbors(id string, t EdgeType) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for _, idx := range g.adj(t, id) {
		if e := g.edge(idx); e.From == id {
			out = append(out, e.To)
		}
	}
	sort.Strings(out)
	return out
}

// readJSON decodes WriteJSON output as a JSON consumer would: into
// Persisted, whose nodes and then edges it adds to a new graph.
func readJSON(r io.Reader) (*Graph, error) {
	var p Persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	g := New()
	for _, n := range p.Nodes {
		if err := g.AddNode(n.ID, n.Attrs); err != nil {
			return nil, err
		}
	}
	for _, e := range p.Edges {
		if err := g.AddEdge(e.From, e.To, e.Type, e.Attrs); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func mustAddNodes(t *testing.T, g *Graph, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := g.AddNode(id, Attrs{"name": id}); err != nil {
			t.Fatalf("AddNode(%s): %v", id, err)
		}
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a")
	if err := g.AddNode("a", nil); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("want ErrDuplicateNode, got %v", err)
	}
}

func TestHasNode(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a")
	if !g.HasNode("a") || g.HasNode("b") {
		t.Fatalf("HasNode(a)=%v HasNode(b)=%v, want true false", g.HasNode("a"), g.HasNode("b"))
	}
	clone := g.Clone()
	mustAddNodes(t, g, "b")
	if !g.HasNode("b") || clone.HasNode("b") {
		t.Fatal("a node added after Clone must be visible in the graph only")
	}
}

// sameMap reports whether a and b are the same map, not merely equal ones.
func sameMap(a, b Attrs) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// TestAttrsOwnership pins the ownership contract of Attrs: the graph
// installs the caller's map and hands the installed map back, and SetAttr
// swaps in a new map, so a Clone taken before it keeps the old one.
func TestAttrsOwnership(t *testing.T) {
	g := New()
	na, nb := Attrs{"k": "a"}, Attrs{"k": "b"}
	mustAddNodesAttrs(t, g, "a", na)
	mustAddNodesAttrs(t, g, "b", nb)
	ea := Attrs{"report": "r"}
	if err := g.AddEdge("a", "b", Coexisting, ea); err != nil {
		t.Fatal(err)
	}
	if n, ok := g.Node("a"); !ok || !sameMap(n.Attrs, na) {
		t.Fatalf("Node(a) returned %v, not the installed map", n.Attrs)
	}
	if es := g.Edges(); len(es) != 1 || !sameMap(es[0].Attrs, ea) {
		t.Fatalf("Edges returned %v, not the installed map", es)
	}
	p := g.Persist()
	if len(p.Nodes) != 2 || !sameMap(p.Nodes[0].Attrs, na) || !sameMap(p.Nodes[1].Attrs, nb) {
		t.Fatalf("Persist nodes %v do not share the installed maps", p.Nodes)
	}
	if len(p.Edges) != 1 || !sameMap(p.Edges[0].Attrs, ea) {
		t.Fatalf("Persist edges %v do not share the installed map", p.Edges)
	}

	clone := g.Clone()
	if err := g.SetAttr("a", "k", "a2"); err != nil {
		t.Fatal(err)
	}
	n, _ := g.Node("a")
	if sameMap(n.Attrs, na) || n.Attrs["k"] != "a2" {
		t.Fatalf("SetAttr wrote %v in place or lost the value", n.Attrs)
	}
	if na["k"] != "a" {
		t.Fatalf("SetAttr modified the installed map: %v", na)
	}
	if old, _ := clone.Node("a"); !sameMap(old.Attrs, na) {
		t.Fatalf("the clone lost the old map: %v", old.Attrs)
	}
}

func mustAddNodesAttrs(t *testing.T, g *Graph, id string, attrs Attrs) {
	t.Helper()
	if err := g.AddNode(id, attrs); err != nil {
		t.Fatal(err)
	}
}

func TestSetAttr(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a")
	if err := g.SetAttr("a", "source", "snyk"); err != nil {
		t.Fatal(err)
	}
	n, _ := g.Node("a")
	if n.Attrs["source"] != "snyk" {
		t.Fatalf("attr not set: %+v", n.Attrs)
	}
	if err := g.SetAttr("missing", "k", "v"); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("want ErrNodeNotFound, got %v", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b")
	if err := g.AddEdge("a", "a", Similar, nil); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	if err := g.AddEdge("a", "zzz", Similar, nil); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("want ErrNodeNotFound, got %v", err)
	}
	if err := g.AddEdge("a", "b", Similar, nil); err != nil {
		t.Fatal(err)
	}
	// Idempotent duplicate, also reversed for undirected type.
	if err := g.AddEdge("b", "a", Similar, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeCount(Similar); got != 1 {
		t.Fatalf("undirected duplicate stored twice: %d", got)
	}
}

func TestDirectedDependencyEdges(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "front", "dep")
	if err := g.AddEdge("front", "dep", Dependency, nil); err != nil {
		t.Fatal(err)
	}
	// Reverse direction is a distinct dependency edge.
	if err := g.AddEdge("dep", "front", Dependency, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeCount(Dependency); got != 2 {
		t.Fatalf("directed edges collapsed: %d", got)
	}
	if !g.HasEdge("front", "dep", Dependency) {
		t.Fatal("HasEdge must see directed edge")
	}
	if got := g.InDegree("dep", Dependency); got != 1 {
		t.Fatalf("InDegree(dep) = %d", got)
	}
	if out := g.OutNeighbors("front", Dependency); len(out) != 1 || out[0] != "dep" {
		t.Fatalf("OutNeighbors = %v", out)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "m", "c", "a", "b")
	for _, n := range []string{"c", "a", "b"} {
		if err := g.AddEdge("m", n, Similar, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Neighbors("m", Similar)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v", got)
		}
	}
}

func TestComponentsByType(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b", "c", "d", "e")
	_ = g.AddEdge("a", "b", Similar, nil)
	_ = g.AddEdge("c", "d", Dependency, nil)

	simComponents := g.ComponentsMin(2, Similar)
	if len(simComponents) != 1 || len(simComponents[0]) != 2 {
		t.Fatalf("similar components = %v", simComponents)
	}
	depComponents := g.ComponentsMin(2, Dependency)
	if len(depComponents) != 1 || depComponents[0][0] != "c" {
		t.Fatalf("dependency components = %v", depComponents)
	}
	all := g.Components()
	if len(all) != 3 { // {a,b}, {c,d}, {e}
		t.Fatalf("all components = %v", all)
	}
}

func TestComponentsPartition(t *testing.T) {
	// Property: Components() is a partition of the node set, and
	// ComponentsMin its filter.
	f := func(edgesRaw []uint16, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		g := New()
		for i := 0; i < n; i++ {
			if err := g.AddNode(fmt.Sprintf("n%02d", i), nil); err != nil {
				return false
			}
		}
		for _, e := range edgesRaw {
			from := fmt.Sprintf("n%02d", int(e)%n)
			to := fmt.Sprintf("n%02d", int(e>>8)%n)
			if from == to {
				continue
			}
			if err := g.AddEdge(from, to, Similar, nil); err != nil {
				return false
			}
		}
		checkComponentsMin(t, g)
		comps := g.Components(Similar)
		seen := map[string]int{}
		for _, c := range comps {
			for _, id := range c {
				seen[id]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsTransitivity(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b", "c")
	_ = g.AddEdge("a", "b", Duplicated, nil)
	_ = g.AddEdge("b", "c", Duplicated, nil)
	comps := g.ComponentsMin(2, Duplicated)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("duplicated must be transitive via components: %v", comps)
	}
}

func TestEdgesFilter(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b", "c")
	_ = g.AddEdge("a", "b", Similar, Attrs{"sim": "0.99"})
	_ = g.AddEdge("b", "c", Coexisting, nil)
	if got := len(g.Edges()); got != 2 {
		t.Fatalf("Edges() = %d", got)
	}
	sim := g.Edges(Similar)
	if len(sim) != 1 || sim[0].Attrs["sim"] != "0.99" {
		t.Fatalf("Edges(Similar) = %v", sim)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b", "c")
	_ = g.AddEdge("a", "b", Similar, Attrs{"sim": "0.9"})
	_ = g.AddEdge("b", "c", Dependency, nil)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != 3 || g2.EdgeCount() != 2 {
		t.Fatalf("round trip lost data: %d nodes %d edges", g2.NodeCount(), g2.EdgeCount())
	}
	if !g2.HasEdge("a", "b", Similar) || !g2.HasEdge("b", "c", Dependency) {
		t.Fatal("edges lost in round trip")
	}
	var buf2 bytes.Buffer
	if err := g2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() == 0 {
		t.Fatal("second serialisation empty")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(pairs []uint16, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := New()
		for i := 0; i < n; i++ {
			_ = g.AddNode(fmt.Sprintf("p%d", i), Attrs{"i": fmt.Sprint(i)})
		}
		for _, p := range pairs {
			a := fmt.Sprintf("p%d", int(p)%n)
			b := fmt.Sprintf("p%d", int(p>>8)%n)
			if a == b {
				continue
			}
			_ = g.AddEdge(a, b, EdgeTypes()[int(p)%4], nil)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		g2, err := readJSON(&buf)
		if err != nil {
			return false
		}
		return g2.NodeCount() == g.NodeCount() && g2.EdgeCount() == g.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := New()
	const n = 200
	for i := 0; i < n; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n-1; i++ {
				if w%2 == 0 {
					_ = g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), Similar, nil)
				} else {
					_ = g.Neighbors(fmt.Sprintf("n%d", i), Similar)
					_, _ = g.EdgeAttrs(fmt.Sprintf("n%d", i+1), fmt.Sprintf("n%d", i), Similar)
					_ = g.Components(Similar)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := g.EdgeCount(Similar); got != n-1 {
		t.Fatalf("concurrent adds deduplicated wrong: %d", got)
	}
	comps := g.Components(Similar)
	if len(comps) != 1 {
		t.Fatalf("expected one chain component, got %d", len(comps))
	}
}

func TestEdgeTypeString(t *testing.T) {
	if Duplicated.String() != "duplicated" || Coexisting.String() != "coexisting" {
		t.Fatal("edge type names wrong")
	}
	if EdgeType(99).String() != "EdgeType(99)" {
		t.Fatal("unknown edge type formatting wrong")
	}
}

// TestCompactionKeepsSurvivorOrder tombstones past the compaction floor
// through both removal primitives and checks what a compaction must keep:
// the survivors in their relative insertion order (Persist, and so every
// snapshot digest, depends on it), other edge types untouched, adjacency
// rebuilt to the survivors, and clean re-insertion at the end.
func TestCompactionKeepsSurvivorOrder(t *testing.T) {
	g := New()
	const n = 1200
	ids := make([]string, n+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
		if err := g.AddNode(ids[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	// A similar chain interleaved with co-existing and dependency edges.
	for i := 0; i < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1], Similar, Attrs{"i": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if err := g.AddEdge(ids[i], ids[n-1-i], Coexisting, nil); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(ids[i+1], ids[i], Dependency, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := g.Edges()

	// One RemoveEdge tombstone, then a wide RemoveEdgesIncident that takes
	// every similar edge of the odd-indexed nodes' neighbourhoods: more than
	// the 1024-slot floor and more than half the slots, so it compacts.
	if !g.RemoveEdge(ids[1], ids[0], Similar) {
		t.Fatal("RemoveEdge missed the first chain edge")
	}
	var odd []string
	for i := 3; i <= n; i += 2 {
		odd = append(odd, ids[i])
	}
	if removed := g.RemoveEdgesIncident(Similar, odd); removed != n-2 {
		t.Fatalf("removed = %d, want %d", removed, n-2)
	}
	if g.dead != 0 || g.nEdges != g.EdgeCount() {
		t.Fatalf("no compaction: %d dead of %d slots", g.dead, g.nEdges)
	}
	var want []Edge
	for _, e := range before {
		if e.Type != Similar || e.From == ids[1] && e.To == ids[2] {
			want = append(want, e)
		}
	}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors after compaction:\n got %v\nwant %v", got, want)
	}
	if got := g.EdgeCount(Similar); got != 1 {
		t.Fatalf("similar count = %d", got)
	}
	if nb := g.Neighbors(ids[2], Similar); len(nb) != 1 || nb[0] != ids[1] {
		t.Fatalf("%s similar neighbors = %v", ids[2], nb)
	}
	if nb := g.Neighbors(ids[3], Similar); len(nb) != 0 {
		t.Fatalf("%s similar neighbors = %v", ids[3], nb)
	}
	if nb := g.Neighbors(ids[0], Coexisting); len(nb) != 1 || nb[0] != ids[n-1] {
		t.Fatalf("%s coexisting neighbors = %v", ids[0], nb)
	}
	// Removed edges re-insert cleanly, after every survivor.
	if err := g.AddEdge(ids[0], ids[1], Similar, Attrs{"i": "again"}); err != nil {
		t.Fatal(err)
	}
	if got := g.Edges(); !reflect.DeepEqual(got[:len(want)], want) || got[len(want)].Attrs["i"] != "again" {
		t.Fatal("re-inserted edge did not append after the survivors")
	}
	if comps := g.ComponentsMin(2, Similar); len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("similar components = %v", comps)
	}
}

func TestRemoveEdgesIncident(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		if err := g.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddEdge("a", "b", Similar, Attrs{"cluster": "x"})
	_ = g.AddEdge("b", "c", Similar, Attrs{"cluster": "x"})
	_ = g.AddEdge("d", "e", Similar, Attrs{"cluster": "y"})
	_ = g.AddEdge("a", "d", Coexisting, nil)
	_ = g.AddEdge("a", "b", Dependency, nil)

	// Dropping partition {a,b,c} must take both its similar edges — and
	// nothing else, even where the nodes carry other edge types.
	if removed := g.RemoveEdgesIncident(Similar, []string{"a", "b", "c"}); removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	if g.HasEdge("a", "b", Similar) || g.HasEdge("b", "c", Similar) {
		t.Fatal("partition edges survived")
	}
	if !g.HasEdge("d", "e", Similar) || !g.HasEdge("a", "d", Coexisting) || !g.HasEdge("a", "b", Dependency) {
		t.Fatal("unrelated edges were removed")
	}
	if got := g.EdgeCount(Similar); got != 1 {
		t.Fatalf("similar count = %d", got)
	}
	if got := g.EdgeCount(); got != 3 {
		t.Fatalf("total count = %d", got)
	}
	// Tombstoned slots must be invisible everywhere: adjacency, edge dumps,
	// serialisation, components.
	if nb := g.Neighbors("b", Similar); len(nb) != 0 {
		t.Fatalf("b similar neighbors = %v", nb)
	}
	if edges := g.Edges(); len(edges) != 3 {
		t.Fatalf("Edges() = %d", len(edges))
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.EdgeCount(); got != 3 {
		t.Fatalf("round-tripped count = %d", got)
	}
	if comps := g.ComponentsMin(2, Similar); len(comps) != 1 || len(comps[0]) != 2 {
		t.Fatalf("similar components = %v", comps)
	}
	// Removed edges must re-insert cleanly (fresh attrs, fresh slot).
	if err := g.AddEdge("a", "b", Similar, Attrs{"cluster": "z"}); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("b", "a", Similar) {
		t.Fatal("re-added edge missing")
	}
	// Tombstones must be reclaimed without being recounted: pile filler
	// edges past the compaction floor and remove them one by one, so a
	// RemoveEdge compacts over this call's tombstones too.
	if removed := g.RemoveEdgesIncident(Similar, []string{"d"}); removed != 1 {
		t.Fatalf("second removal = %d", removed)
	}
	const filler = 1100
	for i := 0; i <= filler; i++ {
		if err := g.AddNode(fmt.Sprintf("f%04d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < filler; i++ {
		if err := g.AddEdge(fmt.Sprintf("f%04d", i), fmt.Sprintf("f%04d", i+1), Coexisting, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < filler; i++ {
		if !g.RemoveEdge(fmt.Sprintf("f%04d", i+1), fmt.Sprintf("f%04d", i), Coexisting) {
			t.Fatalf("filler edge %d missing", i)
		}
	}
	if g.nEdges >= filler {
		t.Fatalf("no compaction: %d dead of %d slots", g.dead, g.nEdges)
	}
	if !g.RemoveEdge("a", "d", Coexisting) {
		t.Fatal("coexisting edge lost in compaction")
	}
	if got := g.EdgeCount(); got != 2 {
		t.Fatalf("final total = %d", got)
	}
	if got := len(g.Edges()); got != 2 {
		t.Fatalf("final Edges() = %d", got)
	}
}

func TestRemoveEdgesIncidentNoMatch(t *testing.T) {
	g := New()
	_ = g.AddNode("a", nil)
	_ = g.AddNode("b", nil)
	_ = g.AddEdge("a", "b", Similar, nil)
	if removed := g.RemoveEdgesIncident(Similar, []string{"zzz"}); removed != 0 {
		t.Fatalf("removed = %d", removed)
	}
	if removed := g.RemoveEdgesIncident(Coexisting, []string{"a"}); removed != 0 {
		t.Fatalf("wrong-type removed = %d", removed)
	}
	if !g.HasEdge("a", "b", Similar) || g.EdgeCount() != 1 {
		t.Fatal("no-op removal mutated the graph")
	}
}

// TestRemoveEdgesIncidentCompaction drives enough tombstone churn to cross
// the compaction threshold and checks the graph stays consistent through it.
func TestRemoveEdgesIncidentCompaction(t *testing.T) {
	g := New()
	const n = 2100 // > 2×1024 so tombstones can exceed the compaction floor
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%04d", i)
		if err := g.AddNode(ids[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	addAll := func() {
		for i := 0; i+1 < n; i += 2 {
			if err := g.AddEdge(ids[i], ids[i+1], Similar, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	addAll()
	if removed := g.RemoveEdgesIncident(Similar, ids); removed != n/2 {
		t.Fatalf("removed = %d", removed)
	}
	if got := g.EdgeCount(); got != 0 {
		t.Fatalf("count after mass removal = %d", got)
	}
	// Re-add and remove again: the second wave crosses the dead threshold
	// and compacts; every index must survive.
	addAll()
	if removed := g.RemoveEdgesIncident(Similar, ids[:n/2]); removed != n/4 {
		t.Fatalf("second wave removed = %d", removed)
	}
	if got := g.EdgeCount(Similar); got != n/2-n/4 {
		t.Fatalf("similar after second wave = %d", got)
	}
	if comps := g.ComponentsMin(2, Similar); len(comps) != n/4 {
		t.Fatalf("components = %d", len(comps))
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.EdgeCount(); got != n/4 {
		t.Fatalf("round-trip count = %d", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c"} {
		if err := g.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(from, to string, et EdgeType, attrs Attrs) {
		t.Helper()
		if err := g.AddEdge(from, to, et, attrs); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge("a", "b", Coexisting, Attrs{"report": "r1"})
	mustEdge("b", "c", Coexisting, Attrs{"report": "r1"})
	mustEdge("a", "b", Similar, Attrs{"cluster": "x"})
	mustEdge("a", "b", Dependency, Attrs{"dep": "b"})

	// Reversed endpoints resolve the same undirected edge.
	if !g.RemoveEdge("b", "a", Coexisting) {
		t.Fatal("undirected removal by reversed endpoints failed")
	}
	if g.HasEdge("a", "b", Coexisting) {
		t.Fatal("edge survives removal")
	}
	// Other types between the same endpoints are untouched.
	if !g.HasEdge("a", "b", Similar) || !g.HasEdge("a", "b", Dependency) {
		t.Fatal("removal bled into other edge types")
	}
	if got := g.EdgeCount(Coexisting); got != 1 {
		t.Fatalf("coexisting count = %d, want 1", got)
	}
	// Neighbors reflect the filtered adjacency, and the slot can be rewritten
	// with fresh attrs — the ownership-repair pattern.
	if nb := g.Neighbors("a", Coexisting); len(nb) != 0 {
		t.Fatalf("a still has coexisting neighbors: %v", nb)
	}
	mustEdge("a", "b", Coexisting, Attrs{"report": "r0"})
	for _, e := range g.Edges(Coexisting) {
		if (e.From == "a" || e.To == "a") && e.Attrs["report"] != "r0" {
			t.Fatalf("re-added edge kept stale attrs: %v", e.Attrs)
		}
	}
	// Dependency edges are directed: the reverse orientation is not it.
	if g.RemoveEdge("b", "a", Dependency) {
		t.Fatal("directed edge removed via reverse orientation")
	}
	if !g.RemoveEdge("a", "b", Dependency) {
		t.Fatal("directed removal failed")
	}
	// Removing a missing edge reports false and changes nothing.
	if g.RemoveEdge("a", "c", Coexisting) {
		t.Fatal("phantom removal reported true")
	}
	if got := g.EdgeCount(); got != 3 {
		t.Fatalf("total edges = %d, want 3", got)
	}
	// Tombstones are invisible to serialisation.
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.EdgeCount(); got != 3 {
		t.Fatalf("round-trip count = %d, want 3", got)
	}
}

func TestEdgeAttrs(t *testing.T) {
	g := New()
	mustAddNodes(t, g, "a", "b", "c")
	for _, e := range []Edge{
		{From: "b", To: "a", Type: Coexisting, Attrs: Attrs{"report": "r1"}},
		{From: "a", To: "b", Type: Similar, Attrs: Attrs{"cluster": "x"}},
		{From: "a", To: "c", Type: Dependency, Attrs: Attrs{"dep": "c"}},
	} {
		if err := g.AddEdge(e.From, e.To, e.Type, e.Attrs); err != nil {
			t.Fatal(err)
		}
	}
	attrsOf := func(g *Graph, from, to string, et EdgeType) string {
		t.Helper()
		attrs, ok := g.EdgeAttrs(from, to, et)
		if !ok {
			return "absent"
		}
		return fmt.Sprint(attrs)
	}
	// Undirected types resolve in either endpoint order.
	for _, ends := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if got := attrsOf(g, ends[0], ends[1], Coexisting); got != "map[report:r1]" {
			t.Errorf("coexisting %s-%s = %s", ends[0], ends[1], got)
		}
		if got := attrsOf(g, ends[0], ends[1], Similar); got != "map[cluster:x]" {
			t.Errorf("similar %s-%s = %s", ends[0], ends[1], got)
		}
	}
	// Dependency is found only from→to, and no type answers for another.
	if got := attrsOf(g, "a", "c", Dependency); got != "map[dep:c]" {
		t.Errorf("dependency a→c = %s", got)
	}
	for _, q := range []struct {
		from, to string
		et       EdgeType
	}{{"c", "a", Dependency}, {"a", "c", Coexisting}, {"a", "b", Duplicated}, {"b", "c", Coexisting}} {
		if got := attrsOf(g, q.from, q.to, q.et); got != "absent" {
			t.Errorf("%s %s-%s = %s, want absent", q.et, q.from, q.to, got)
		}
	}
	// A removed edge is absent, its siblings of other types are not.
	if !g.RemoveEdge("a", "b", Coexisting) {
		t.Fatal("RemoveEdge missed a-b")
	}
	if got := attrsOf(g, "b", "a", Coexisting); got != "absent" {
		t.Errorf("removed coexisting b-a = %s", got)
	}
	if got := attrsOf(g, "a", "b", Similar); got != "map[cluster:x]" {
		t.Errorf("similar a-b after the coexisting removal = %s", got)
	}
}

// TestEdgeAttrsAcrossCompactionAndClone: an edge keeps its attrs through a
// compaction that moves its slot, and a clone taken before the compaction
// answers from its own adjacency; a removal on either side stays there.
func TestEdgeAttrsAcrossCompactionAndClone(t *testing.T) {
	g := New()
	const n = 2100 // > 2×1024 so the tombstones pass the compaction floor
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%04d", i)
		mustAddNodes(t, g, ids[i])
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1], Similar, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(ids[n-1], ids[0], Coexisting, Attrs{"report": "r0"}); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if removed := g.RemoveEdgesIncident(Similar, ids); removed != n-1 {
		t.Fatalf("removed %d similar edges, want %d", removed, n-1)
	}
	if g.nEdges != 1 || g.dead != 0 {
		t.Fatalf("no compaction: %d slots, %d tombstones", g.nEdges, g.dead)
	}
	for _, side := range []struct {
		name string
		g    *Graph
	}{{"compacted", g}, {"clone", c}} {
		if attrs, ok := side.g.EdgeAttrs(ids[0], ids[n-1], Coexisting); !ok || attrs["report"] != "r0" {
			t.Errorf("%s: coexisting edge = %v, %v", side.name, attrs, ok)
		}
	}
	if _, ok := c.EdgeAttrs(ids[1], ids[0], Similar); !ok {
		t.Error("clone lost a similar edge the original removed")
	}
	if !c.RemoveEdge(ids[0], ids[n-1], Coexisting) {
		t.Fatal("clone RemoveEdge missed the coexisting edge")
	}
	if _, ok := c.EdgeAttrs(ids[0], ids[n-1], Coexisting); ok {
		t.Error("clone still finds its removed edge")
	}
	if attrs, ok := g.EdgeAttrs(ids[n-1], ids[0], Coexisting); !ok || attrs["report"] != "r0" {
		t.Errorf("a removal in the clone reached the original: %v, %v", attrs, ok)
	}
}

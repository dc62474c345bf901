package graph

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"malgraph/internal/xrand"
)

// twin pairs a graph under test with an independent deep copy that
// receives the same writes. The copy is rebuilt from JSON, so it shares no
// container with any other graph and carries no tombstones: it is the
// reference for what the graph must look like.
type twin struct {
	name string
	g    *Graph
	ref  *Graph
}

func deepCopy(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observe renders everything a reader can see of g for the given node IDs:
// the JSON export, per-type edge counts, sorted neighbors and out-neighbors,
// in-degrees, components, and HasEdge over every ordered pair of the first
// pairIDs IDs.
func observe(t *testing.T, g *Graph, ids []string) string {
	t.Helper()
	var b strings.Builder
	if err := g.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "nodes=%d edges=%d", g.NodeCount(), g.EdgeCount())
	for _, et := range EdgeTypes() {
		fmt.Fprintf(&b, " %s=%d", et, g.EdgeCount(et))
	}
	b.WriteByte('\n')
	for _, id := range ids {
		for _, et := range EdgeTypes() {
			fmt.Fprintf(&b, "%s %s %v %v %d\n", id, et, g.Neighbors(id, et), g.OutNeighbors(id, et), g.InDegree(id, et))
			for _, other := range ids[:pairIDs] {
				if g.HasEdge(id, other, et) {
					fmt.Fprintf(&b, "has %s %s %s\n", id, other, et)
				}
			}
		}
	}
	fmt.Fprintf(&b, "%v\n", g.Components())
	checkComponentsMin(t, g)
	return b.String()
}

// checkComponentsMin fails unless ComponentsMin, at every minimum size and
// for every edge type and for all types at once, equals Components with the
// smaller components filtered out.
func checkComponentsMin(t *testing.T, g *Graph) {
	t.Helper()
	for _, types := range [][]EdgeType{nil, {Duplicated}, {Similar}, {Dependency}, {Coexisting}, {Similar, Coexisting}} {
		all := g.Components(types...)
		for _, minSize := range []int{0, 1, 2, 3, 5} {
			var want [][]string
			for _, c := range all {
				if len(c) >= minSize {
					want = append(want, c)
				}
			}
			got := g.ComponentsMin(minSize, types...)
			if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
				t.Fatalf("ComponentsMin(%d, %v) = %v, filtered Components %v", minSize, types, got, want)
			}
		}
	}
}

// The schedule's node universe, and how many of its IDs observe checks
// HasEdge over pairwise.
const (
	nIDs    = 160
	pairIDs = 24
)

// TestCloneIsolation runs a seeded random schedule of every graph mutation
// interleaved with Clone, on the original and on its clones alike. At
// regular checkpoints of the schedule every graph must look exactly like its deep
// copy: no write to one graph may reach the graph it was cloned from, a
// clone of it, or a sibling clone. The schedule tombstones enough edges to
// trigger the compaction in maybeCompactLocked on shared pages.
func TestCloneIsolation(t *testing.T) {
	rng := xrand.New(20240404)
	ids := make([]string, nIDs)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
	}
	pick := func() string { return ids[rng.Intn(nIDs)] }
	pickType := func() EdgeType { return EdgeTypes()[rng.Intn(len(EdgeTypes()))] }

	graphs := []*twin{{name: "orig", g: New(), ref: New()}}
	for _, id := range ids[:nIDs-20] { // the rest arrive through AddNode
		mustAddNodes(t, graphs[0].g, id)
		mustAddNodes(t, graphs[0].ref, id)
	}
	compactions := 0
	// Two rounds of a long growth phase followed by a sweep phase of wide
	// RemoveEdgesIncident calls, so that tombstones pile up past the
	// compaction floor at least once per round.
	const round, sweepFrom, steps = 4000, 3400, 8000
	for step := 0; step < steps; step++ {
		sweep := step%round >= sweepFrom
		// The original is the writer most of the time, as in the engine.
		tw := graphs[0]
		if rng.Intn(8) == 0 {
			tw = graphs[rng.Intn(len(graphs))]
		}
		slotsBefore := tw.g.nEdges
		op := rng.Intn(1000)
		if sweep && op >= 100 && op < 937 && rng.Intn(4) == 0 {
			op = 980 // a quarter of the sweep phase's edge inserts become sweeps
		}
		switch {
		case op < 5:
			c := &twin{name: fmt.Sprintf("%s/clone@%d", tw.name, step), g: tw.g.Clone(), ref: deepCopy(t, tw.ref)}
			graphs = append(graphs, c)
		case op < 50:
			id := pick()
			attrs := Attrs{"v": fmt.Sprint(step)}
			errG, errR := tw.g.AddNode(id, attrs), tw.ref.AddNode(id, attrs)
			if errors.Is(errG, ErrDuplicateNode) != errors.Is(errR, ErrDuplicateNode) {
				t.Fatalf("step %d %s: AddNode(%s) = %v, reference %v", step, tw.name, id, errG, errR)
			}
		case op < 100:
			id, key, val := pick(), fmt.Sprintf("k%d", rng.Intn(3)), fmt.Sprint(step)
			errG, errR := tw.g.SetAttr(id, key, val), tw.ref.SetAttr(id, key, val)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("step %d %s: SetAttr(%s) = %v, reference %v", step, tw.name, id, errG, errR)
			}
		case op < 937:
			a, b, et := pick(), pick(), pickType()
			attrs := Attrs{"step": fmt.Sprint(step)}
			errG, errR := tw.g.AddEdge(a, b, et, attrs), tw.ref.AddEdge(a, b, et, attrs)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("step %d %s: AddEdge(%s,%s,%s) = %v, reference %v", step, tw.name, a, b, et, errG, errR)
			}
		case op < 957:
			a, b, et := pick(), pick(), pickType()
			if g, r := tw.g.RemoveEdge(a, b, et), tw.ref.RemoveEdge(a, b, et); g != r {
				t.Fatalf("step %d %s: RemoveEdge(%s,%s,%s) = %v, reference %v", step, tw.name, a, b, et, g, r)
			}
			if tw.g.nEdges < slotsBefore {
				compactions++ // tombstoning shrank the slots: maybeCompactLocked fired
			}
		default:
			n := 1 + rng.Intn(3)
			if sweep {
				n = nIDs
			}
			nodes := make([]string, n)
			for i := range nodes {
				nodes[i] = pick()
			}
			et := pickType()
			if g, r := tw.g.RemoveEdgesIncident(et, nodes), tw.ref.RemoveEdgesIncident(et, nodes); g != r {
				t.Fatalf("step %d %s: RemoveEdgesIncident(%s) = %d, reference %d", step, tw.name, et, g, r)
			}
			if tw.g.nEdges < slotsBefore {
				compactions++
			}
		}
		if step%500 == 499 {
			for _, other := range graphs {
				if got, want := observe(t, other.g, ids), observe(t, other.ref, ids); got != want {
					t.Fatalf("step %d: %s diverged from its deep copy", step, other.name)
				}
			}
		}
	}
	if len(graphs) < 10 {
		t.Fatalf("schedule took only %d clones", len(graphs)-1)
	}
	t.Logf("%d graphs, %d compactions past the tombstone floor", len(graphs), compactions)
	if compactions == 0 {
		t.Fatal("schedule never compacted past the tombstone floor")
	}
}

// TestCloneSurvivesCompaction compacts a graph whose pages are shared with a
// clone, shifting survivors within a page the two still share: the clone
// must keep every edge the compaction drops or moves in the original.
func TestCloneSurvivesCompaction(t *testing.T) {
	g := New()
	const n, head = 4 * pageSize, 100
	ids := make([]string, n+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
		mustAddNodes(t, g, ids[i])
	}
	for i := 0; i < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1], Similar, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := deepCopy(t, g)
	c := g.Clone()
	// Tombstone the first head chain edges (page 0), then the last two
	// pages: past the tombstone floor and more than half the slots, so the
	// second removal compacts and moves page 1's survivors down head slots.
	if removed := g.RemoveEdgesIncident(Similar, ids[:head]); removed != head {
		t.Fatalf("removed %d head edges, want %d", removed, head)
	}
	if removed := g.RemoveEdgesIncident(Similar, ids[2*pageSize+1:]); removed != 2*pageSize {
		t.Fatalf("removed %d tail edges, want %d", removed, 2*pageSize)
	}
	if live := 2*pageSize - head; g.nEdges != live {
		t.Fatalf("original has %d slots after the removals, want %d (no compaction)", g.nEdges, live)
	}
	if got, w := observe(t, c, ids), observe(t, want, ids); got != w {
		t.Fatal("compacting the original changed its clone")
	}
	if got := g.EdgeCount(Similar); got != 2*pageSize-head {
		t.Fatalf("original has %d edges after compaction, want %d", got, 2*pageSize-head)
	}
}

// TestCloneSurvivesCompactionInSharedPage compacts a graph whose last kept
// page is still shared with a clone when compactLocked reaches its tail.
// Page 1's tail is tombstoned before the clone is taken, so the compaction
// moves no survivor and must not write that page. The slots it would clear
// hold only tombstones, so a write there leaves the clone reading the same
// edges; what catches it is a reader of the clone scanning during the
// compaction, which -race reports against any write to a shared page.
func TestCloneSurvivesCompactionInSharedPage(t *testing.T) {
	g := New()
	const n, cut = 4 * pageSize, pageSize + 50
	ids := make([]string, n+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
		mustAddNodes(t, g, ids[i])
	}
	for i := 0; i < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1], Similar, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone chain edges cut..2*pageSize-1, the tail of page 1: below
	// the tombstone floor, so nothing compacts yet.
	if removed := g.RemoveEdgesIncident(Similar, ids[cut+1:2*pageSize]); removed != 2*pageSize-cut {
		t.Fatalf("removed %d page-1 edges, want %d", removed, 2*pageSize-cut)
	}
	want := deepCopy(t, g)
	c := g.Clone()

	// The reader scans every slot of the clone, as Persist does, until the
	// compaction is over. Its scans after started are concurrent with the
	// compaction.
	started, done := make(chan struct{}), make(chan int)
	var stop atomic.Bool
	go func() {
		scan := func() int {
			c.mu.RLock()
			defer c.mu.RUnlock()
			live := 0
			for i := 0; i < c.nEdges; i++ {
				if c.edge(i).Type != 0 {
					live++
				}
			}
			return live
		}
		live := scan()
		close(started)
		for !stop.Load() {
			live = scan()
		}
		done <- live
	}()
	<-started
	// Tombstone the last two pages: past the floor and more than half the
	// slots, so this compacts down to cut slots without moving an edge.
	removed := g.RemoveEdgesIncident(Similar, ids[2*pageSize+1:])
	stop.Store(true)
	live := <-done
	if removed != 2*pageSize {
		t.Fatalf("removed %d tail edges, want %d", removed, 2*pageSize)
	}
	if g.nEdges != cut {
		t.Fatalf("original has %d slots after the removals, want %d", g.nEdges, cut)
	}
	if g.pages[1] != c.pages[1] {
		t.Fatal("compaction copied page 1: the shared-tail case was not reached")
	}
	if w := want.EdgeCount(); live != w {
		t.Fatalf("the clone's reader saw %d live edges, want %d", live, w)
	}
	if got, w := observe(t, c, ids), observe(t, want, ids); got != w {
		t.Fatal("compacting the original changed its clone")
	}
	if got := g.EdgeCount(Similar); got != cut {
		t.Fatalf("original has %d edges after compaction, want %d", got, cut)
	}
}

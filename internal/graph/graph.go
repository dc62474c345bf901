// Package graph implements the labelled property-graph store underlying
// MALGRAPH. The paper stores interlinked malicious-package nodes in Neo4j
// (§III); this package is the embedded, stdlib-only substitute: typed nodes
// and edges with attribute maps, adjacency indexes, connected-component and
// subgraph queries, and JSON persistence. All operations are safe for
// concurrent use, and Clone shares the corpus copy-on-write (see Graph).
package graph

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"malgraph/internal/graph/cow"
)

// EdgeType classifies a relationship between two packages (§III).
type EdgeType int

// The four MALGRAPH relationship types.
const (
	Duplicated EdgeType = iota + 1
	Similar
	Dependency
	Coexisting
)

var edgeTypeNames = map[EdgeType]string{
	Duplicated: "duplicated",
	Similar:    "similar",
	Dependency: "dependency",
	Coexisting: "coexisting",
}

// String returns the paper's name for the edge type.
func (t EdgeType) String() string {
	if s, ok := edgeTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("EdgeType(%d)", int(t))
}

// EdgeTypes lists all edge types in declaration order.
func EdgeTypes() []EdgeType {
	return []EdgeType{Duplicated, Similar, Dependency, Coexisting}
}

// Attrs is a string-keyed attribute map attached to nodes and edges. A map
// handed to the graph belongs to it and is never written again: AddNode and
// AddEdge install the caller's map, and Node, Edges and Persist return the
// installed one, so one map may back many edges (a report's co-existing
// clique shares one) and no attribute is copied on the way in or out.
// Neither side may modify a map once it is installed; SetAttr swaps in a new
// one instead. Outside this package the epochsafe pass of malgraphlint
// flags writes into the Attrs of a Node or Edge value.
type Attrs map[string]string

// Node is a graph node. The paper's nodes carry seven attributes (ID, name,
// version, source, hash, ecosystem, ...); those live in Attrs so the store
// stays schema-free.
type Node struct {
	ID    string `json:"id"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// Edge is a typed, attributed relationship. Edges are stored undirected for
// duplicated/similar/co-existing semantics; Dependency edges are directed
// From→To ("From depends on To") but still indexed on both endpoints.
type Edge struct {
	From  string   `json:"from"`
	To    string   `json:"to"`
	Type  EdgeType `json:"type"`
	Attrs Attrs    `json:"attrs,omitempty"`
}

// ErrNodeNotFound is returned when an operation references an unknown node.
var ErrNodeNotFound = errors.New("graph: node not found")

// ErrDuplicateNode is returned when adding a node whose ID already exists.
var ErrDuplicateNode = errors.New("graph: duplicate node id")

// Graph is a concurrent-safe labelled property graph.
//
// Every container is copy-on-write so that Clone shares the corpus instead
// of copying it: the node map, the per-type adjacency maps and the edge dedup set are
// cow.Maps; the edge list is a table of fixed-size pages. Values reachable
// from a container are immutable once a Clone may share them: SetAttr swaps
// in a new *Node, adjacency lists and pages are written in place only by
// the graph whose generation stamped them, and attribute maps are owned by
// the graph from AddNode or AddEdge on and never written again (see Attrs).
type Graph struct {
	mu sync.RWMutex
	// gen stamps the pages and adjacency lists this graph may write in
	// place; Clone gives both sides fresh generations. guarded by mu.
	gen   uint64
	nodes cow.Map[*Node] // guarded by mu
	// adjacency[type] maps a node ID to the slots of its edges of that
	// type, in slot order. guarded by mu.
	adjacency [numTypes]cow.Map[adjList]
	// pages hold the edge slots in insertion order; nEdges slots are in
	// use, tombstones included. Clone copies only the page pointers.
	// guarded by mu.
	pages  []*edgePage
	nEdges int
	// edgeSeen holds the dedup key of every live edge: type|min|max
	// (undirected) or type|from|to (directed). guarded by mu.
	edgeSeen cow.Map[struct{}]
	// countByType is maintained on insert so EdgeCount stays O(1) — the
	// analyses poll per-type counts concurrently and must not scan the
	// edge list under the read lock each time. guarded by mu.
	countByType [numTypes]int
	// dead counts tombstoned slots (Type == 0) left behind by RemoveEdge and
	// RemoveEdgesIncident, which surgically unlink edges without the O(E)
	// adjacency rebuild a compaction costs. Tombstones are reclaimed once
	// they exceed half the slots. guarded by mu.
	dead int
}

// numTypes sizes the per-type arrays, which are indexed by EdgeType.
const numTypes = int(Coexisting) + 1

func validType(t EdgeType) bool { return t >= Duplicated && t <= Coexisting }

const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// edgePage is one fixed-size run of edge slots.
type edgePage struct {
	gen   uint64
	slots [pageSize]Edge
}

// adjList is one node's edge slots of one type. The slots array is
// appended to in place only by the graph whose generation is gen.
type adjList struct {
	gen   uint64
	slots []int
}

var generations atomic.Uint64

func nextGen() uint64 { return generations.Add(1) }

// New returns an empty graph.
func New() *Graph { return &Graph{gen: nextGen()} }

// edge returns slot i for reading.
func (g *Graph) edge(i int) *Edge { return &g.pages[i>>pageShift].slots[i&pageMask] }

// edgeForWriteLocked returns slot i for writing, copying its page first if
// a clone may share it.
func (g *Graph) edgeForWriteLocked(i int) *Edge {
	p := g.pages[i>>pageShift]
	if p.gen != g.gen {
		cp := new(edgePage)
		*cp = *p
		cp.gen = g.gen
		g.pages[i>>pageShift] = cp
		p = cp
	}
	return &p.slots[i&pageMask]
}

// appendEdgeLocked stores e in the next free slot and returns its index.
func (g *Graph) appendEdgeLocked(e Edge) int {
	i := g.nEdges
	if i>>pageShift == len(g.pages) {
		g.pages = append(g.pages, &edgePage{gen: g.gen})
	}
	*g.edgeForWriteLocked(i) = e
	g.nEdges++
	return i
}

// adj returns id's type-t edge slots (nil when none).
func (g *Graph) adj(t EdgeType, id string) []int {
	if !validType(t) {
		return nil
	}
	if l, ok := g.adjacency[t].Get(id); ok {
		return l.slots
	}
	return nil
}

// linkLocked appends slot to id's type-t adjacency list: in place when
// this graph owns the list, otherwise into a fresh copy.
func (g *Graph) linkLocked(t EdgeType, id string, slot int) {
	l := g.adjacency[t].Slot(id)
	if l.gen != g.gen {
		// Full slice expression: append must not write into an array a
		// clone may share.
		l.slots = l.slots[:len(l.slots):len(l.slots)]
		l.gen = g.gen
	}
	l.slots = append(l.slots, slot)
}

// AddNode inserts a node. It takes ownership of attrs: the map is installed
// without a copy, and the caller must not modify it afterwards.
func (g *Graph) AddNode(id string, attrs Attrs) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := &Node{ID: id, Attrs: attrs}
	if !g.nodes.Insert(id, n) {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	return nil
}

// Node returns the node with the given ID. Its Attrs is the installed map,
// which the caller must not modify.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes.Get(id)
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// SetAttr sets one attribute on an existing node. The node and its
// attribute map are replaced, not mutated in place (copy-on-write): a Clone
// taken before the call, and any caller holding the old map, keep observing
// the old value.
func (g *Graph) SetAttr(id, key, value string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	next := make(Attrs, len(n.Attrs)+1)
	for k, v := range n.Attrs {
		next[k] = v
	}
	next[key] = value
	g.nodes.Set(id, &Node{ID: id, Attrs: next})
	return nil
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes.Len()
}

// EdgeCount returns the total number of edges, or the count for one type if
// given. Counts come from the per-type index, so this is O(#types) however
// large the graph grows.
func (g *Graph) EdgeCount(types ...EdgeType) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(types) == 0 {
		return g.nEdges - g.dead
	}
	n := 0
	seen := 0
	for _, t := range types {
		// Guard against the same type listed twice: count each type once.
		if !validType(t) || seen&(1<<uint(t)) != 0 {
			continue
		}
		seen |= 1 << uint(t)
		n += g.countByType[t]
	}
	return n
}

// orient returns an edge's endpoints in the order its dedup key holds them:
// sorted for the undirected types, as given for Dependency ("from depends
// on to"). This is the one place that decides which types are undirected.
func orient(t EdgeType, from, to string) (string, string) {
	if t != Dependency && from > to {
		return to, from
	}
	return from, to
}

func edgeKey(t EdgeType, from, to string) string {
	from, to = orient(t, from, to)
	// One allocation per key: this runs for every AddEdge/HasEdge call, and
	// Sprintf boxing dominated graph-construction alloc profiles.
	var b strings.Builder
	b.Grow(2 + len(from) + 1 + len(to))
	b.WriteByte(byte('0' + int(t)))
	b.WriteByte('|')
	b.WriteString(from)
	b.WriteByte('|')
	b.WriteString(to)
	return b.String()
}

// AddEdge inserts a typed edge between existing nodes. Self-loops and
// unknown edge types are rejected; duplicate (type, endpoints) insertions
// are idempotent no-ops. It takes ownership of attrs like AddNode; one map
// may back any number of edges.
func (g *Graph) AddEdge(from, to string, t EdgeType, attrs Attrs) error {
	if from == to {
		return fmt.Errorf("graph: self-loop on %s", from)
	}
	if !validType(t) {
		return fmt.Errorf("graph: unknown edge type %d", int(t))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes.Get(from); !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, from)
	}
	if _, ok := g.nodes.Get(to); !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, to)
	}
	if !g.edgeSeen.Insert(edgeKey(t, from, to), struct{}{}) {
		return nil
	}
	e := Edge{From: from, To: to, Type: t, Attrs: attrs}
	idx := g.appendEdgeLocked(e)
	g.linkLocked(t, from, idx)
	g.linkLocked(t, to, idx)
	g.countByType[t]++
	return nil
}

// RemoveEdgesIncident deletes every edge of type t incident to any of the
// given nodes and returns how many were removed. It costs O(Σ degree) of the
// touched nodes, not O(total edges): removed slots are tombstoned in place
// (keeping every surviving edge index valid) and only the touched nodes'
// adjacency lists are filtered. This is the scoped edge replacement the
// incremental engine leans on — a dirty LSH partition's similar edges, a
// grown hub-and-path group's co-existing edges or a late artifact's
// duplicated clique are dropped and re-derived without paying a whole-graph
// adjacency rebuild. Tombstones are compacted away once they outnumber live
// edges.
func (g *Graph) RemoveEdgesIncident(t EdgeType, nodes []string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	touched := make(map[string]bool, len(nodes))
	for _, id := range nodes {
		for _, idx := range g.adj(t, id) {
			e := g.edge(idx)
			if e.Type != t {
				continue // tombstoned already via an earlier node of this call
			}
			g.edgeSeen.Delete(edgeKey(t, e.From, e.To))
			touched[e.From] = true
			touched[e.To] = true
			*g.edgeForWriteLocked(idx) = Edge{}
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	g.countByType[t] -= removed
	g.dead += removed
	ids := make([]string, 0, len(touched))
	for id := range touched {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	g.filterAdjacencyLocked(t, ids)
	g.maybeCompactLocked()
	return removed
}

// filterAdjacencyLocked drops tombstoned slots from the given nodes' type-t
// adjacency lists, deleting lists that empty out. The filtered list is a
// fresh one: the old list may be shared with a clone. Callers hold g.mu.
func (g *Graph) filterAdjacencyLocked(t EdgeType, ids []string) {
	for _, id := range ids {
		lst := g.adj(t, id)
		var live []int
		for _, idx := range lst {
			if g.edge(idx).Type == t {
				live = append(live, idx)
			}
		}
		if len(live) == 0 {
			g.adjacency[t].Delete(id)
		} else if len(live) < len(lst) {
			g.adjacency[t].Set(id, adjList{gen: g.gen, slots: live})
		}
	}
}

// maybeCompactLocked reclaims tombstoned slots once they outnumber live
// edges (past a floor that keeps small graphs from compacting constantly).
// Callers hold g.mu.
func (g *Graph) maybeCompactLocked() {
	if g.dead <= 1024 || g.dead*2 <= g.nEdges {
		return
	}
	g.compactLocked()
}

// compactLocked drops every tombstoned slot, shifting the survivors down in
// order, and rebuilds the adjacency indexes. Pages are written through
// edgeForWriteLocked, so pages shared with a clone are copied, never
// rewritten. Callers hold g.mu.
func (g *Graph) compactLocked() {
	w := 0
	for r := 0; r < g.nEdges; r++ {
		e := g.edge(r)
		if e.Type == 0 {
			continue
		}
		if w != r {
			*g.edgeForWriteLocked(w) = *e
		}
		w++
	}
	// Release the vacated tail: whole pages are dropped, and the last kept
	// page is cleared past w when this graph owns it (a shared page's tail
	// is never read and is overwritten by the next append's copy). The
	// clearing is a loop, not clear(), so that the race detector sees the
	// writes: a clone may be reading a page this graph does not own.
	keep := (w + pageMask) >> pageShift
	if w&pageMask != 0 {
		if p := g.pages[keep-1]; p.gen == g.gen {
			tail := p.slots[w&pageMask:]
			for i := range tail {
				tail[i] = Edge{}
			}
		}
	}
	clear(g.pages[keep:])
	g.pages = g.pages[:keep]
	g.nEdges = w
	g.dead = 0
	for t := range g.adjacency {
		g.adjacency[t] = cow.Map[adjList]{}
	}
	for idx := 0; idx < g.nEdges; idx++ {
		e := g.edge(idx)
		g.linkLocked(e.Type, e.From, idx)
		g.linkLocked(e.Type, e.To, idx)
	}
}

// RemoveEdge deletes the single edge of type t joining from and to (either
// orientation for undirected types, exactly from→to for Dependency) and
// reports whether it existed. Like RemoveEdgesIncident the slot is tombstoned
// in place and only the two endpoints' adjacency lists are filtered, so the
// cost is O(degree) of the endpoints — the primitive behind per-pair edge
// replacement (the co-existing stage's first-writer ownership repair), where
// exactly one edge's attributes must change without touching its neighbors.
func (g *Graph) RemoveEdge(from, to string, t EdgeType) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.edgeSeen.Delete(edgeKey(t, from, to)) {
		return false
	}
	if i := g.edgeSlotLocked(from, to, t); i >= 0 {
		*g.edgeForWriteLocked(i) = Edge{}
	}
	g.countByType[t]--
	g.dead++
	g.filterAdjacencyLocked(t, []string{from, to})
	g.maybeCompactLocked()
	return true
}

// EdgeAttrs returns the attributes of the type-t edge joining the two nodes
// (in either direction for undirected types; exactly from→to for
// Dependency) and whether that edge exists. The map is the installed one
// and must not be modified (see Attrs). It costs O(degree) of the endpoint
// with fewer type-t edges.
func (g *Graph) EdgeAttrs(from, to string, t EdgeType) (Attrs, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i := g.edgeSlotLocked(from, to, t)
	if i < 0 {
		return nil, false
	}
	return g.edge(i).Attrs, true
}

// edgeSlotLocked returns the slot of the live type-t edge joining from and
// to (either orientation for undirected types, exactly from→to for
// Dependency), or -1. Every edge is indexed on both endpoints, so it scans
// the shorter of their adjacency lists. Callers hold g.mu.
func (g *Graph) edgeSlotLocked(from, to string, t EdgeType) int {
	slots := g.adj(t, from)
	if other := g.adj(t, to); len(other) < len(slots) {
		slots = other
	}
	for _, idx := range slots {
		e := g.edge(idx)
		if e.Type != t {
			continue
		}
		if (e.From == from && e.To == to) || (t != Dependency && e.From == to && e.To == from) {
			return idx
		}
	}
	return -1
}

// Neighbors returns the IDs adjacent to id via edges of type t, sorted.
func (g *Graph) Neighbors(id string, t EdgeType) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for _, idx := range g.adj(t, id) {
		e := g.edge(idx)
		if e.From == id {
			out = append(out, e.To)
		} else {
			out = append(out, e.From)
		}
	}
	sort.Strings(out)
	return out
}

// InDegree returns the number of edges of type t whose To endpoint is id —
// for Dependency edges, how many packages hide behind this one (Table VIII).
func (g *Graph) InDegree(id string, t EdgeType) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, idx := range g.adj(t, id) {
		if g.edge(idx).To == id {
			n++
		}
	}
	return n
}

// Edges returns all edges in insertion order, optionally filtered by type.
// The slice is the caller's; each Attrs is the installed map, which the
// caller must not modify.
func (g *Graph) Edges(types ...EdgeType) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	want := typeMask(types)
	var out []Edge
	for i := 0; i < g.nEdges; i++ {
		e := g.edge(i)
		if e.Type == 0 || want&(1<<uint(e.Type)) == 0 {
			continue // tombstoned slot or unwanted type
		}
		out = append(out, *e)
	}
	return out
}

// typeMask returns the bit set of the given edge types (all types when none
// are given).
func typeMask(types []EdgeType) int {
	if len(types) == 0 {
		types = EdgeTypes()
	}
	mask := 0
	for _, t := range types {
		if validType(t) {
			mask |= 1 << uint(t)
		}
	}
	return mask
}

// NodeIDs returns all node IDs, sorted.
func (g *Graph) NodeIDs() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes.Keys()
}

// Components returns the connected components induced by edges of the given
// types (all types when none given). Each component is sorted; components are
// ordered by their smallest member. This is the paper's subgraph operation:
// "if two nodes have an edge e(u,v), we put them into the same subgraph".
// Every node with no such edge is a singleton component.
func (g *Graph) Components(types ...EdgeType) [][]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	linked := g.linkedComponentsLocked(typeMask(types))
	inLinked := make(map[string]struct{})
	for _, c := range linked {
		for _, id := range c {
			inLinked[id] = struct{}{}
		}
	}
	// Merge the linked components, keyed by their smallest member, into the
	// sorted node list, whose other nodes are singletons.
	ids := g.nodes.Keys()
	out := make([][]string, 0, len(ids)-len(inLinked)+len(linked))
	for _, id := range ids {
		if _, ok := inLinked[id]; !ok {
			out = append(out, []string{id})
		} else if len(linked) > 0 && linked[0][0] == id {
			out = append(out, linked[0])
			linked = linked[1:]
		}
	}
	return out
}

// ComponentsMin returns the components with at least minSize members, in
// Components order — the paper's subgraphs always require ≥2 nodes. With
// minSize ≥ 2 it builds no singleton: only edge endpoints are unioned and
// sorted, so its cost follows the wanted edges, not the node count.
func (g *Graph) ComponentsMin(minSize int, types ...EdgeType) [][]string {
	var all [][]string
	if minSize < 2 {
		all = g.Components(types...)
	} else {
		g.mu.RLock()
		all = g.linkedComponentsLocked(typeMask(types))
		g.mu.RUnlock()
	}
	out := all[:0]
	for _, c := range all {
		if len(c) >= minSize {
			out = append(out, c)
		}
	}
	return out
}

// linkedComponentsLocked returns the components of two or more nodes that
// the wanted edge types induce, each sorted, ordered by smallest member.
// Unions run over the edge slots in insertion order on endpoint numbers,
// and members are gathered in sorted ID order, so no step depends on map
// iteration order. Callers hold g.mu.
func (g *Graph) linkedComponentsLocked(want int) [][]string {
	index := make(map[string]int32)
	var ids []string
	var parent []int32
	number := func(id string) int32 {
		i, ok := index[id]
		if !ok {
			i = int32(len(ids))
			index[id] = i
			ids = append(ids, id)
			parent = append(parent, i)
		}
		return i
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < g.nEdges; i++ {
		e := g.edge(i)
		if e.Type == 0 || want&(1<<uint(e.Type)) == 0 {
			continue // tombstoned slot or unwanted type
		}
		if ra, rb := find(number(e.From)), find(number(e.To)); ra != rb {
			parent[ra] = rb
		}
	}
	order := make([]int32, len(ids))
	size := make([]int32, len(ids))
	for i := range order {
		order[i] = int32(i)
		size[find(int32(i))]++
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
	// One backing array holds every member; each component gets a
	// capacity-capped window of it, opened at its smallest member.
	backing := make([]string, 0, len(ids))
	comp := make([]int32, len(ids)) // root → index in out, plus one
	var out [][]string
	for _, i := range order {
		r := find(i)
		if comp[r] == 0 {
			n := len(backing)
			backing = backing[:n+int(size[r])]
			out = append(out, backing[n:n:n+int(size[r])])
			comp[r] = int32(len(out))
		}
		c := comp[r] - 1
		out[c] = append(out[c], ids[i])
	}
	return out
}

// Clone returns an independent copy of the graph — the immutable view the
// epoch-publishing read path serves from. It costs one pointer per 512-edge
// page: the clone shares every container with the original, both sides get
// fresh generations, and whichever side writes next copies the shard, page
// or adjacency list it touches first. Later writes to either graph
// therefore never reach the other. The next write pays for what its batch
// touches plus, once per written cow.Map, a copy of that map's shard table
// (one 32-byte header per 4–8 keys) — far below a copy of the corpus, but
// still linear in it.
func (g *Graph) Clone() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := &Graph{
		gen:         nextGen(),
		nodes:       g.nodes.Clone(),
		pages:       slices.Clone(g.pages),
		nEdges:      g.nEdges,
		edgeSeen:    g.edgeSeen.Clone(),
		countByType: g.countByType,
		dead:        g.dead,
	}
	for t := range g.adjacency {
		c.adjacency[t] = g.adjacency[t].Clone()
	}
	g.gen = nextGen()
	return c
}

// Persisted is the graph's serialised form: WriteJSON encodes it, and
// Canonical gives it in an order-free form for state digests. Nodes are
// sorted by ID; edges keep insertion order, tombstones dropped.
type Persisted struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Persist captures the graph's current state. The result shares the
// graph's attribute maps, which are immutable once installed (see Attrs);
// callers must not modify them.
func (g *Graph) Persist() *Persisted {
	g.mu.RLock()
	defer g.mu.RUnlock()
	p := &Persisted{Edges: make([]Edge, 0, g.nEdges-g.dead)}
	for i := 0; i < g.nEdges; i++ {
		if e := g.edge(i); e.Type != 0 { // skip tombstoned slots
			p.Edges = append(p.Edges, *e)
		}
	}
	for _, id := range g.nodes.Keys() {
		n, _ := g.nodes.Get(id)
		p.Nodes = append(p.Nodes, *n)
	}
	return p
}

// Canonical captures the graph as a set, independent of insertion order:
// nodes sorted by ID, as Persist writes them, and edges oriented as their
// dedup key orients them (see orient) and sorted by type, then endpoints.
// The dedup set holds one edge per type and oriented endpoint pair, so the
// order has no ties. Like Persist's, the result shares attribute maps.
func (g *Graph) Canonical() *Persisted {
	p := g.Persist()
	for i := range p.Edges {
		e := &p.Edges[i]
		e.From, e.To = orient(e.Type, e.From, e.To)
	}
	slices.SortFunc(p.Edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Type, b.Type), strings.Compare(a.From, b.From), strings.Compare(a.To, b.To))
	})
	return p
}

// WriteJSON serialises the graph deterministically (nodes sorted by ID).
func (g *Graph) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(g.Persist())
}

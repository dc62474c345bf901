// Package graph implements the labelled property-graph store underlying
// MALGRAPH. The paper stores interlinked malicious-package nodes in Neo4j
// (§III); this package is the embedded, stdlib-only substitute: typed nodes
// and edges with attribute maps, adjacency indexes, connected-component and
// subgraph queries, and JSON persistence. All operations are safe for
// concurrent use, and Clone shares the corpus copy-on-write (see Graph).
package graph

import (
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

// Attrs is a string-keyed attribute map attached to nodes and edges.
type Attrs map[string]string

func (a Attrs) clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

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
// the graph whose generation stamped them, and edge attribute maps are
// copied once at AddEdge and never written again.
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
	// dead counts tombstoned slots (Type == 0) left behind by
	// RemoveEdgesIncident, which surgically unlinks edges without the O(E)
	// adjacency rebuild a compaction costs. Tombstones are reclaimed by the
	// next RemoveEdgesWhere or when they exceed half the slots. guarded by mu.
	dead int
	// journal records mutations for delta checkpoints once EnableJournal is
	// called; nil means recording is off. guarded by mu.
	journal []Op
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

// AddNode inserts a node. Attribute maps are copied at the boundary.
func (g *Graph) AddNode(id string, attrs Attrs) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := &Node{ID: id, Attrs: attrs.clone()}
	if !g.nodes.Insert(id, n) {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	g.recordLocked(Op{Kind: "node", ID: id, Attrs: n.Attrs})
	return nil
}

// Node returns a copy of the node with the given ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes.Get(id)
	if !ok {
		return Node{}, false
	}
	return Node{ID: n.ID, Attrs: n.Attrs.clone()}, true
}

// SetAttr sets one attribute on an existing node. The node is replaced,
// not mutated in place (copy-on-write): a Clone taken before the call
// shares the old node and keeps observing the old value.
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
	g.recordLocked(Op{Kind: "attr", ID: id, Key: key, Value: value})
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

func edgeKey(t EdgeType, from, to string) string {
	if t != Dependency && from > to {
		from, to = to, from
	}
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
// are idempotent no-ops.
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
	e := Edge{From: from, To: to, Type: t, Attrs: attrs.clone()}
	idx := g.appendEdgeLocked(e)
	g.linkLocked(t, from, idx)
	g.linkLocked(t, to, idx)
	g.countByType[t]++
	g.recordLocked(Op{Kind: "edge", From: from, To: to, Type: t, Attrs: e.Attrs})
	return nil
}

// RemoveEdgesWhere deletes every edge of type t for which pred holds and
// returns how many were removed. The edge slots are compacted and all
// adjacency indexes are rebuilt, so the surviving edges keep their relative
// insertion order — the operation is deterministic for a deterministic pred.
// It exists for incremental maintenance: a derived edge family (one
// ecosystem's similar edges, the co-existing edges of a report corpus) can be
// dropped wholesale and re-derived without reconstructing the graph.
func (g *Graph) RemoveEdgesWhere(t EdgeType, pred func(Edge) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	compacted := g.compactLocked(func(e *Edge) bool {
		if e.Type == 0 {
			return true // tombstone left by RemoveEdgesIncident
		}
		if e.Type != t || !pred(*e) {
			return false
		}
		g.edgeSeen.Delete(edgeKey(e.Type, e.From, e.To))
		g.recordLocked(Op{Kind: "deledge", From: e.From, To: e.To, Type: e.Type})
		removed++
		return true
	})
	if !compacted {
		return 0
	}
	if validType(t) {
		g.countByType[t] -= removed
	}
	return removed
}

// RemoveEdgesIncident deletes every edge of type t incident to any of the
// given nodes and returns how many were removed. Unlike RemoveEdgesWhere it
// costs O(Σ degree) of the touched nodes, not O(total edges): removed slots
// are tombstoned in place (keeping every surviving edge index valid) and
// only the touched nodes' adjacency lists are filtered. This is the
// partition-scoped edge replacement the incremental engine leans on — a
// dirty LSH partition's similar edges are dropped and re-derived without
// paying a whole-graph adjacency rebuild. Tombstones are compacted away once
// they outnumber live edges.
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
			g.recordLocked(Op{Kind: "deledge", From: e.From, To: e.To, Type: t})
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
	g.compactLocked(func(e *Edge) bool { return e.Type == 0 })
}

// compactLocked drops every slot for which drop holds, shifting the
// survivors down in order, and rebuilds the adjacency indexes if anything
// was dropped (which it reports). Pages are written through
// edgeForWriteLocked, so pages shared with a clone are copied, never
// rewritten. Callers hold g.mu.
func (g *Graph) compactLocked(drop func(*Edge) bool) bool {
	w := 0
	for r := 0; r < g.nEdges; r++ {
		e := g.edge(r)
		if drop(e) {
			continue
		}
		if w != r {
			*g.edgeForWriteLocked(w) = *e
		}
		w++
	}
	if w == g.nEdges {
		return false
	}
	// Release the vacated tail: whole pages are dropped, and the last kept
	// page is cleared past w when this graph owns it (a shared page's tail
	// is never read and is overwritten by the next append's copy).
	keep := (w + pageMask) >> pageShift
	if w&pageMask != 0 {
		if p := g.pages[keep-1]; p.gen == g.gen {
			clear(p.slots[w&pageMask:])
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
	return true
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
	g.recordLocked(Op{Kind: "deledge", From: from, To: to, Type: t})
	for _, idx := range g.adj(t, from) {
		e := g.edge(idx)
		if e.Type != t {
			continue
		}
		if (e.From == from && e.To == to) || (t != Dependency && e.From == to && e.To == from) {
			*g.edgeForWriteLocked(idx) = Edge{}
			break
		}
	}
	g.countByType[t]--
	g.dead++
	g.filterAdjacencyLocked(t, []string{from, to})
	g.maybeCompactLocked()
	return true
}

// HasEdge reports whether an edge of type t joins the two nodes (in either
// direction for undirected types; exactly from→to for Dependency).
func (g *Graph) HasEdge(from, to string, t EdgeType) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.edgeSeen.Get(edgeKey(t, from, to))
	return ok
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

// Edges returns a copy of all edges, optionally filtered by type.
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
		out = append(out, Edge{From: e.From, To: e.To, Type: e.Type, Attrs: e.Attrs.clone()})
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

// NodesWhere returns sorted IDs of nodes for which pred holds.
func (g *Graph) NodesWhere(pred func(Node) bool) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for _, id := range g.nodes.Keys() {
		n, _ := g.nodes.Get(id)
		if pred(Node{ID: n.ID, Attrs: n.Attrs}) {
			out = append(out, id)
		}
	}
	return out
}

// Components returns the connected components induced by edges of the given
// types (all types when none given). Each component is sorted; components are
// ordered by their smallest member. This is the paper's subgraph operation:
// "if two nodes have an edge e(u,v), we put them into the same subgraph".
//
// Unions run over the edge slots in insertion order and members are
// gathered in sorted node order, so no step depends on map iteration order.
func (g *Graph) Components(types ...EdgeType) [][]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	want := typeMask(types)
	// Union-find over edge endpoints only: a node absent from parent is a
	// singleton root.
	parent := make(map[string]string)
	find := func(x string) string {
		for {
			p, ok := parent[x]
			if !ok || p == x {
				return x
			}
			gp := parent[p]
			parent[x] = gp
			x = gp
		}
	}
	for i := 0; i < g.nEdges; i++ {
		e := g.edge(i)
		if e.Type == 0 || want&(1<<uint(e.Type)) == 0 {
			continue
		}
		ra, rb := find(e.From), find(e.To)
		if ra == rb {
			continue
		}
		if _, ok := parent[rb]; !ok {
			parent[rb] = rb
		}
		parent[ra] = rb
	}
	ids := g.nodes.Keys()
	out := make([][]string, 0, len(ids)-len(parent)/2)
	at := make(map[string]int) // component root → index in out
	for _, id := range ids {
		if _, linked := parent[id]; !linked {
			out = append(out, []string{id})
			continue
		}
		root := find(id)
		if i, ok := at[root]; ok {
			out[i] = append(out[i], id)
			continue
		}
		at[root] = len(out)
		out = append(out, []string{id})
	}
	return out
}

// ComponentsMin returns components with at least minSize members — the
// paper's subgraphs always require ≥2 nodes.
func (g *Graph) ComponentsMin(minSize int, types ...EdgeType) [][]string {
	all := g.Components(types...)
	out := all[:0]
	for _, c := range all {
		if len(c) >= minSize {
			out = append(out, c)
		}
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

// Persisted is the graph's serialised form: WriteJSON encodes it, ReadJSON
// decodes it, and a caller that embeds a graph in a larger JSON document
// can marshal and unmarshal it in place instead of nesting WriteJSON
// output. Nodes are sorted by ID; edges keep insertion order, tombstones
// dropped.
type Persisted struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// Persist captures the graph's current state. The result shares the
// graph's attribute maps, which are immutable once installed (see Graph);
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

// Build reconstructs the graph p describes.
func (p *Persisted) Build() (*Graph, error) {
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

// WriteJSON serialises the graph deterministically (nodes sorted by ID).
func (g *Graph) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(g.Persist())
}

// ReadJSON deserialises a graph previously written with WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var p Persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("graph decode: %w", err)
	}
	return p.Build()
}

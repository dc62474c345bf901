package graph

import (
	"sort"
)

// NodeFilter is a predicate over nodes used by Match.
type NodeFilter func(Node) bool

// AttrEquals matches nodes whose attribute key equals value.
func AttrEquals(key, value string) NodeFilter {
	return func(n Node) bool { return n.Attrs[key] == value }
}

// AttrExists matches nodes carrying the attribute at all.
func AttrExists(key string) NodeFilter {
	return func(n Node) bool {
		_, ok := n.Attrs[key]
		return ok
	}
}

// HasNeighborVia matches nodes with at least one edge of type t.
func (g *Graph) HasNeighborVia(t EdgeType) NodeFilter {
	return func(n Node) bool { return len(g.Neighbors(n.ID, t)) > 0 }
}

// Match returns the sorted IDs of nodes satisfying every filter — the
// MALGRAPH analogue of a Cypher node-pattern match.
func (g *Graph) Match(filters ...NodeFilter) []string {
	return g.NodesWhere(func(n Node) bool {
		for _, f := range filters {
			if !f(n) {
				return false
			}
		}
		return true
	})
}

// ShortestPath returns a minimum-hop path from → to over edges of the given
// types (all types when none given), or nil when unreachable. Dependency
// edges are traversed in both directions, matching the paper's use of the
// dependency subgraph as an undirected grouping.
func (g *Graph) ShortestPath(from, to string, types ...EdgeType) []string {
	if from == to {
		if g.HasNode(from) {
			return []string{from}
		}
		return nil
	}
	if len(types) == 0 {
		types = EdgeTypes()
	}
	prev := map[string]string{from: from}
	frontier := []string{from}
	for len(frontier) > 0 {
		var next []string
		for _, id := range frontier {
			for _, t := range types {
				for _, nb := range g.Neighbors(id, t) {
					if _, seen := prev[nb]; seen {
						continue
					}
					prev[nb] = id
					if nb == to {
						return unwind(prev, from, to)
					}
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return nil
}

func unwind(prev map[string]string, from, to string) []string {
	var path []string
	for cur := to; ; cur = prev[cur] {
		path = append(path, cur)
		if cur == from {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// DegreeRank returns node IDs ranked by descending degree over edges of type
// t, limited to top n (0 = all). For Dependency edges the in-degree is used,
// which is exactly the Table VIII ranking.
func (g *Graph) DegreeRank(t EdgeType, n int) []RankedNode {
	type kv struct {
		id  string
		deg int
	}
	var all []kv
	for _, id := range g.NodeIDs() {
		var deg int
		if t == Dependency {
			deg = g.InDegree(id, t)
		} else {
			deg = len(g.Neighbors(id, t))
		}
		if deg > 0 {
			all = append(all, kv{id, deg})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].id < all[j].id
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	out := make([]RankedNode, 0, len(all))
	for _, e := range all {
		out = append(out, RankedNode{ID: e.id, Degree: e.deg})
	}
	return out
}

// RankedNode is one DegreeRank row.
type RankedNode struct {
	ID     string `json:"id"`
	Degree int    `json:"degree"`
}

// Stats summarises the graph for dashboards and logs.
type Stats struct {
	Nodes          int              `json:"nodes"`
	EdgesByType    map[string]int   `json:"edgesByType"`
	ComponentSizes map[string][]int `json:"componentSizes"` // per edge type, descending
}

// Summary computes Stats.
func (g *Graph) Summary() Stats {
	s := Stats{
		Nodes:          g.NodeCount(),
		EdgesByType:    make(map[string]int, 4),
		ComponentSizes: make(map[string][]int, 4),
	}
	for _, t := range EdgeTypes() {
		s.EdgesByType[t.String()] = g.EdgeCount(t)
		var sizes []int
		for _, comp := range g.ComponentsMin(2, t) {
			sizes = append(sizes, len(comp))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		s.ComponentSizes[t.String()] = sizes
	}
	return s
}

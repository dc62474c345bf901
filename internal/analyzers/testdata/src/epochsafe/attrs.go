package epochsafe

import (
	"maps"

	"malgraph/internal/graph"
)

// The graph owns every attribute map installed through AddNode or AddEdge
// and hands the same map back from Node, Edges and Persist, so a write
// into the Attrs of a graph.Node or graph.Edge outside internal/graph is
// a finding.

func badNodeAttrWrite(g *graph.Graph) {
	n, _ := g.Node("a")
	n.Attrs["k"] = "v" // want `writes into the Attrs of a graph.Node`
}

func badEdgeAttrDelete(g *graph.Graph) {
	for _, e := range g.Edges() {
		delete(e.Attrs, "report") // want `deletes from the Attrs of a graph.Edge`
	}
}

func badPersistedClear(p *graph.Persisted) {
	clear(p.Nodes[0].Attrs) // want `clears from the Attrs of a graph.Node`
}

func badEdgeAlias(edges []graph.Edge) {
	a := edges[0].Attrs
	a["k"] = "v" // want `writes into the Attrs of a graph.Edge`
}

func badMapsCopy(e *graph.Edge, extra graph.Attrs) {
	maps.Copy(e.Attrs, extra) // want `calls maps.Copy into the Attrs of a graph.Edge`
}

// goodBuildThenHandOver fills a map it built itself, then hands it over.
func goodBuildThenHandOver(g *graph.Graph) error {
	attrs := graph.Attrs{"kind": "package"}
	attrs["name"] = "a"
	return g.AddNode("a", attrs)
}

// goodDerive copies an installed map into a new one before changing it.
func goodDerive(g *graph.Graph) graph.Attrs {
	n, _ := g.Node("a")
	next := maps.Clone(n.Attrs)
	next["k"] = "v"
	return next
}

// goodRebind rebinds an alias to a fresh map before writing.
func goodRebind(n graph.Node) graph.Attrs {
	a := n.Attrs
	a = graph.Attrs{}
	a["k"] = "v"
	return a
}

func waivedAttrWrite(n graph.Node) {
	//malgraph:epoch-ok test fixture writes a node decoded for this call only
	n.Attrs["k"] = "v"
}

package analyzers

// epochsafe — publish-then-freeze discipline for the lock-free read path.
//
// PR 7 split reads from writes: every pipeline mutator exits by publishing
// an immutable Epoch (carrying a copy-on-write core.Engine.View graph
// snapshot and an incremental Results chain) through an atomic pointer, and
// readers share those values without locks. That only holds if nothing
// writes to a published value: one post-publish map write or in-place
// append tears a view out from under a concurrent reader.
//
// The pass flags assignments, map writes, appends, deletes/clears and
// mutator-named method calls whose target chain is rooted at:
//
//   - a value of a type named Epoch or Results,
//   - the result of a View() method call (core.Engine.View,
//     collect.Result.View — the COW snapshots epochs are built from), or
//   - a local alias of either (one forward flow pass per function; range
//     variables over frozen containers are aliases too).
//
// Exemptions: the file that declares the frozen type and files defining a
// function that returns it (its constructor files — values under
// construction are not yet published), and locally built values
// (`r := &Results{...}` may be filled in before it escapes). A reviewed
// exception carries `//malgraph:epoch-ok <reason>`.
//
// Graph attribute maps are frozen too. internal/graph installs the map a
// caller hands to AddNode or AddEdge without a copy and returns that map
// from Node, Edges and Persist, so one map may back many edges and every
// published view. Outside internal/graph the pass therefore flags map
// writes, deletes, clears and maps.Copy/maps.DeleteFunc into the Attrs
// field of a graph.Node or graph.Edge value, or into a local alias of
// one. A graph.Attrs still being built (a local map literal not
// yet handed over) is not such a value and may be filled in.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Epochsafe reports writes to epoch-frozen values outside constructor files.
var Epochsafe = &Analyzer{
	Name:   "epochsafe",
	Doc:    "flag writes to Epoch, Results and View()-derived values outside their constructor files",
	Waiver: "epoch",
	Run:    runEpochsafe,
}

// frozenTypeNames are the named types whose values are immutable once
// published.
var frozenTypeNames = map[string]bool{
	"Epoch":   true,
	"Results": true,
}

func runEpochsafe(pass *Pass) {
	inGraph := isGraphPackage(pass.Pkg)
	for _, f := range pass.Files {
		exempt := constructorExemptions(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &epochCheck{
				pass:   pass,
				exempt: exempt,
				fresh:  compositeLitVars(pass.Info, fd.Body),
				frozen: make(map[*types.Var]string),
				attrs:  make(map[*types.Var]string),
				graph:  inGraph,
			}
			c.walk(fd.Body)
		}
	}
}

// constructorExemptions returns the frozen type names this file may
// legitimately write to: types it declares and types it constructs (defines
// a function returning them).
func constructorExemptions(pass *Pass, f *ast.File) map[string]bool {
	exempt := make(map[string]bool)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && frozenTypeNames[ts.Name.Name] {
					exempt[ts.Name.Name] = true
				}
			}
		case *ast.FuncDecl:
			if d.Type.Results == nil {
				continue
			}
			for _, res := range d.Type.Results.List {
				if tv, ok := pass.Info.Types[res.Type]; ok {
					if n := namedType(tv.Type); n != nil && frozenTypeNames[n.Obj().Name()] {
						exempt[n.Obj().Name()] = true
					}
				}
			}
		}
	}
	return exempt
}

type epochCheck struct {
	pass   *Pass
	exempt map[string]bool
	fresh  map[*types.Var]bool
	frozen map[*types.Var]string // local aliases of frozen values
	attrs  map[*types.Var]string // local aliases of installed graph attribute maps
	graph  bool                  // the package is internal/graph itself
}

// graphAttrTypes are the internal/graph types whose Attrs field holds a map
// the graph owns.
var graphAttrTypes = map[string]bool{"Node": true, "Edge": true}

// isGraphPackage reports whether pkg is internal/graph, the one package
// that may write into installed attribute maps.
func isGraphPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "internal/graph" || strings.HasSuffix(p, "/internal/graph")
}

// attrsDesc classifies the map operand of a write: non-empty when it is the
// Attrs field of a graph.Node or graph.Edge value, or a local alias of
// one, describing it for the finding.
func (c *epochCheck) attrsDesc(e ast.Expr) string {
	if c.graph {
		return ""
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := identObj(c.pass.Info, x).(*types.Var); ok {
			return c.attrs[v]
		}
	case *ast.SelectorExpr:
		if x.Sel.Name != "Attrs" {
			return ""
		}
		tv, ok := c.pass.Info.Types[x.X]
		if !ok {
			return ""
		}
		if n := namedType(tv.Type); n != nil && graphAttrTypes[n.Obj().Name()] && isGraphPackage(n.Obj().Pkg()) {
			return "the Attrs of a graph." + n.Obj().Name()
		}
	}
	return ""
}

func (c *epochCheck) reportAttrs(pos token.Pos, action, desc string) {
	c.pass.Reportf(pos, "%s %s — the graph owns installed attribute maps; build a new Attrs and call SetAttr or AddEdge instead, or waive with //malgraph:epoch-ok <reason>",
		action, desc)
}

// frozenDesc classifies an access chain's root: non-empty when the chain is
// rooted at a frozen value, describing it for the finding.
func (c *epochCheck) frozenDesc(e ast.Expr) string {
	root := rootExpr(e)
	switch r := root.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(r.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "View" {
			return "a View() snapshot"
		}
	case *ast.Ident:
		v, ok := identObj(c.pass.Info, r).(*types.Var)
		if !ok {
			return ""
		}
		if desc := c.frozen[v]; desc != "" {
			return desc
		}
		if c.fresh[v] {
			return ""
		}
		if n := namedType(v.Type()); n != nil {
			name := n.Obj().Name()
			if frozenTypeNames[name] && !c.exempt[name] {
				return "a published " + name
			}
		}
	}
	return ""
}

func (c *epochCheck) report(pos token.Pos, action, desc string) {
	c.pass.Reportf(pos, "%s %s outside its constructor file — published views are frozen; build a new value instead, or waive with //malgraph:epoch-ok <reason>",
		action, desc)
}

func (c *epochCheck) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(s)
		case *ast.RangeStmt:
			// Range variables over a frozen container alias its contents.
			if desc := c.frozenDesc(s.X); desc != "" {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if v, ok := identObj(c.pass.Info, id).(*types.Var); ok {
							c.frozen[v] = desc
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if _, isIdent := ast.Unparen(s.X).(*ast.Ident); !isIdent {
				if desc := c.frozenDesc(s.X); desc != "" {
					c.report(s.Pos(), "increments a value reachable from", desc)
				}
			}
		case *ast.CallExpr:
			c.checkCall(s)
		}
		return true
	})
}

func (c *epochCheck) checkAssign(s *ast.AssignStmt) {
	// Taint propagation first: a local bound to a frozen-rooted expression
	// is an alias of frozen state; rebinding it to anything else clears it.
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := identObj(c.pass.Info, id).(*types.Var)
			if !ok {
				continue
			}
			if desc := c.frozenDesc(s.Rhs[i]); desc != "" {
				c.frozen[v] = desc
			} else if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				delete(c.frozen, v)
			}
			if desc := c.attrsDesc(s.Rhs[i]); desc != "" {
				c.attrs[v] = desc
			} else if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				delete(c.attrs, v)
			}
		}
	}
	// Then the write check: any non-identifier target (field, index, deref)
	// rooted at a frozen value mutates published state.
	for _, lhs := range s.Lhs {
		lhs = ast.Unparen(lhs)
		if _, isIdent := lhs.(*ast.Ident); isIdent {
			continue // rebinding a variable, not writing through it
		}
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if desc := c.attrsDesc(ix.X); desc != "" {
				c.reportAttrs(s.Pos(), "writes into", desc)
			}
		}
		if desc := c.frozenDesc(lhs); desc != "" {
			action := "writes to a field of"
			if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
				action = "writes to a map/slice element of"
			}
			c.report(s.Pos(), action, desc)
		}
	}
}

func (c *epochCheck) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := identObj(c.pass.Info, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "delete", "clear":
				if len(call.Args) >= 1 {
					if desc := c.frozenDesc(call.Args[0]); desc != "" {
						c.report(call.Pos(), id.Name+"s from a container reachable from", desc)
					}
					if desc := c.attrsDesc(call.Args[0]); desc != "" {
						c.reportAttrs(call.Pos(), id.Name+"s from", desc)
					}
				}
			case "append":
				// append may write into the shared backing array of a frozen
				// slice even when the result is bound elsewhere.
				if len(call.Args) >= 1 {
					if desc := c.frozenDesc(call.Args[0]); desc != "" {
						c.report(call.Pos(), "appends to a slice reachable from", desc)
					}
				}
			case "copy":
				if len(call.Args) == 2 {
					if desc := c.frozenDesc(call.Args[0]); desc != "" {
						c.report(call.Pos(), "copies into a slice reachable from", desc)
					}
				}
			}
			return
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fn, ok := identObj(c.pass.Info, sel.Sel).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps" &&
		(fn.Name() == "Copy" || fn.Name() == "DeleteFunc") && len(call.Args) >= 1 {
		if desc := c.attrsDesc(call.Args[0]); desc != "" {
			c.reportAttrs(call.Pos(), "calls maps."+fn.Name()+" into", desc)
		}
		return
	}
	if selInfo, found := c.pass.Info.Selections[sel]; !found || selInfo.Kind() != types.MethodVal {
		return
	}
	if !isMutatorName(sel.Sel.Name) {
		return
	}
	if desc := c.frozenDesc(sel.X); desc != "" {
		c.report(call.Pos(), "calls mutator "+sel.Sel.Name+" on", desc)
	}
}

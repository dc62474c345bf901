// Package analyzers holds MALGRAPH's repo-specific static-analysis passes —
// the machine-checked form of the correctness contracts every equivalence
// guarantee in this tree rests on:
//
//   - maprange: in the deterministic zone, iteration over a Go map must not
//     have loop-order-dependent effects (byte-identical output under any
//     GOMAXPROCS / batch partition is the core contract);
//   - nondeterm: the deterministic zone must not consult wall clocks,
//     global RNGs, the process environment, or JSON-marshal bare maps —
//     randomness routes through internal/xrand derived streams, time
//     through injected values;
//   - epochsafe: values published for lock-free reading (Epoch, Results,
//     View()-derived graph snapshots) are frozen at publish; writes outside
//     their constructor files break the copy-on-write discipline of the
//     epoch read path;
//   - lockguard: struct fields annotated `guarded by <mu>` may only be
//     touched by functions that acquire that mutex, follow the *Locked
//     naming convention, or are reached one call level below an acquirer.
//
// The passes mirror the golang.org/x/tools/go/analysis API shape (Analyzer,
// Pass, Diagnostic, testdata fixtures with `// want` expectations) but run
// on a self-contained stdlib driver (see loader.go): x/tools is not
// vendored in this module and the build environment is offline, so the
// framework is deliberately dependency-free.
//
// Findings are suppressed by waiver directives in the source:
//
//	//malgraph:nondeterm-ok <reason>   (maprange, nondeterm)
//	//malgraph:epoch-ok <reason>       (epochsafe)
//	//malgraph:lock-ok <reason>        (lockguard)
//
// A directive applies to its own line and, when it stands alone on a line,
// to the next line. A directive without a reason is itself a lint error —
// waivers document *why* a contract does not apply, or they do not count.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static-analysis pass. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer so the passes port to the real
// multichecker verbatim if x/tools ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	// Waiver names the directive kind (`//malgraph:<Waiver>-ok reason`)
	// that suppresses this analyzer's findings.
	Waiver string
	Run    func(*Pass)
}

// Pass carries one package's parsed-and-typechecked state through an
// Analyzer.Run, and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	waivers map[string]map[int]*waiver // filename → line → directive
	diags   []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a matching waiver covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if w := p.waiverFor(position, p.Analyzer.Waiver); w != nil {
		w.used = true
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Waived reports whether a matching directive covers pos. Analyzers use it
// to skip a whole construct (e.g. an entire waived map-range loop) instead
// of reporting each effect inside it.
func (p *Pass) Waived(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	if w := p.waiverFor(position, p.Analyzer.Waiver); w != nil {
		w.used = true
		return true
	}
	return false
}

func (p *Pass) waiverFor(pos token.Position, kind string) *waiver {
	lines := p.waivers[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if w := lines[line]; w != nil && w.kind == kind && w.reason != "" {
			// A standalone directive covers the next line; a trailing one
			// covers only its own.
			if line == pos.Line || w.standalone {
				return w
			}
		}
	}
	return nil
}

// waiver is one parsed //malgraph:<kind>-ok directive.
type waiver struct {
	kind       string
	reason     string
	pos        token.Position
	standalone bool // directive is the only thing on its line
	used       bool
}

var waiverRe = regexp.MustCompile(`^//malgraph:([a-z]+)-ok(\s.*)?$`)

// parseWaivers scans a file's comments for waiver directives.
func parseWaivers(fset *token.FileSet, f *ast.File) []*waiver {
	var out []*waiver
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := waiverRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			reason := strings.TrimSpace(m[2])
			// A trailing `// want` expectation (analysistest fixtures annotate
			// the directive's own line) is not a reason.
			if i := strings.Index(reason, "// want"); i >= 0 {
				reason = strings.TrimSpace(reason[:i])
			}
			out = append(out, &waiver{
				kind:       m[1],
				reason:     reason,
				pos:        pos,
				standalone: pos.Column == 1 || onlyCommentOnLine(fset, f, c),
			})
		}
	}
	return out
}

// onlyCommentOnLine reports whether no declaration/statement token shares
// the comment's line (i.e. the directive stands alone and therefore covers
// the following line).
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return true
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return true
		}
		if n.Pos().IsValid() && fset.Position(n.Pos()).Line == line && n.Pos() != c.Pos() {
			// Another node starts on this line; composite nodes spanning the
			// line don't count, only ones that begin there.
			switch n.(type) {
			case *ast.File, *ast.GenDecl, *ast.FuncDecl, *ast.BlockStmt:
				return true
			default:
				alone = false
				return false
			}
		}
		return true
	})
	return alone
}

// CheckPackage runs each analyzer over the package and returns the combined,
// waiver-filtered findings, sorted by position. Directives with a missing
// reason — for any of the supplied analyzers' waiver kinds — are themselves
// findings, as are waivers that suppress nothing (a stale waiver hides a
// future regression).
func CheckPackage(pkg *Package, as []*Analyzer) []Diagnostic {
	waivers := make(map[string]map[int]*waiver)
	var all []*waiver
	for _, f := range pkg.Files {
		for _, w := range parseWaivers(pkg.Fset, f) {
			if waivers[w.pos.Filename] == nil {
				waivers[w.pos.Filename] = make(map[int]*waiver)
			}
			waivers[w.pos.Filename][w.pos.Line] = w
			all = append(all, w)
		}
	}

	kinds := make(map[string]string, len(as)) // waiver kind → analyzer name
	var diags []Diagnostic
	for _, a := range as {
		kinds[a.Waiver] = a.Name
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			waivers:  waivers,
		}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}

	for _, w := range all {
		name, relevant := kinds[w.kind]
		if !relevant {
			continue
		}
		switch {
		case w.reason == "":
			diags = append(diags, Diagnostic{
				Analyzer: name,
				Pos:      w.pos,
				Message: fmt.Sprintf("waiver //malgraph:%s-ok is missing a reason — state why the contract does not apply",
					w.kind),
			})
		case !w.used:
			diags = append(diags, Diagnostic{
				Analyzer: name,
				Pos:      w.pos,
				Message: fmt.Sprintf("waiver //malgraph:%s-ok suppresses nothing — remove it (a stale waiver hides the next regression)",
					w.kind),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return dedupe(diags)
}

func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	var last Diagnostic
	for i, d := range diags {
		if i > 0 && d == last {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out
}

// DeterministicZone lists the module-relative package paths whose output
// must be byte-identical under any GOMAXPROCS, batch partition or replay —
// the packages maprange and nondeterm police. Everything the graph, the
// clustering kernels, and the RQ analyses are computed from lives here, and
// so does the simulated world they are computed over: the generator, the
// report web, the sources and the seeded random streams.
var DeterministicZone = []string{
	"internal/core",
	"internal/graph",
	"internal/textsim",
	"internal/analysis",
	"internal/stats",
	"internal/world",
	"internal/attacker",
	"internal/codegen",
	"internal/webworld",
	"internal/sources",
	"internal/reports",
	"internal/ecosys",
	"internal/xrand",
}

// InDeterministicZone reports whether importPath (under modulePath) is one
// of the deterministic-zone packages or a child of one.
func InDeterministicZone(modulePath, importPath string) bool {
	rel := strings.TrimPrefix(importPath, modulePath+"/")
	if rel == importPath && importPath != modulePath {
		return false
	}
	for _, z := range DeterministicZone {
		if rel == z || strings.HasPrefix(rel, z+"/") {
			return true
		}
	}
	return false
}

// All returns the four analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Maprange, Nondeterm, Epochsafe, Lockguard}
}

// ZoneOnly reports whether the analyzer is restricted to the deterministic
// zone (maprange, nondeterm) rather than module-wide (epochsafe, lockguard).
func ZoneOnly(a *Analyzer) bool {
	return a == Maprange || a == Nondeterm
}

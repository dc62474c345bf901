package codegen

import (
	"fmt"
	"slices"
	"strings"

	"malgraph/internal/ecosys"
)

// Op is a social-engineering changing operation between two consecutive
// malicious releases (§V-B): OP_i = diff(pkg_i, pkg_i+1).
type Op int

// The five operations of Fig. 9 / Fig. 12.
const (
	OpName        Op = iota + 1 // CN: changing name
	OpVersion                   // CV: changing version
	OpDescription               // CD: changing description
	OpDependency                // CDep: changing dependency
	OpCode                      // CC: changing source code
)

var opNames = map[Op]string{
	OpName:        "CN",
	OpVersion:     "CV",
	OpDescription: "CD",
	OpDependency:  "CDep",
	OpCode:        "CC",
}

// String returns the paper's abbreviation (CN, CV, CD, CDep, CC).
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// DiffFacts is everything the operation diff reads of one artifact, taken
// once so that a subgraph's transitions compare two records instead of
// re-reading both artifacts' files per transition.
type DiffFacts struct {
	name, version, description string
	// deps are the manifest dependency names, sorted: two artifacts change
	// no dependency when the lists are equal as multisets.
	deps []string
	// source is the MergedSource stream in pieces, each source file's
	// content followed by a "\n" piece, and sourceLen its byte length.
	// Two artifacts have equal MergedSource exactly when the streams are
	// equal; nothing is concatenated to find out.
	source    []string
	sourceLen int
	// lines are the trimmed, non-empty lines of the source files, sorted.
	// Files are joined by "\n" in MergedSource, so no line spans two files
	// and these are exactly the merged source's lines.
	lines []string
}

// NewDiffFacts takes an artifact's diff facts. The strings it keeps are
// substrings of the artifact's files.
func NewDiffFacts(a *ecosys.Artifact) *DiffFacts {
	f := &DiffFacts{
		name:        a.Coord.Name,
		version:     a.Coord.Version,
		description: a.Description,
		deps:        ManifestDeps(a),
	}
	slices.Sort(f.deps)
	for _, file := range a.Files {
		if !ecosys.IsSourcePath(file.Path) {
			continue
		}
		f.source = append(f.source, file.Content, "\n")
		f.sourceLen += len(file.Content) + 1
		for rest := file.Content; ; {
			line, tail, more := strings.Cut(rest, "\n")
			if line = strings.TrimSpace(line); line != "" {
				f.lines = append(f.lines, line)
			}
			if !more {
				break
			}
			rest = tail
		}
	}
	slices.Sort(f.lines)
	return f
}

// Ops classifies which changing operations separate f's release from
// next's. CN and CV are mutually exclusive alternatives (the paper's Fig. 9
// percentages sum to 100 across CN+CV): a release either reuses the name
// with a new version or takes a new name. CD, CDep and CC are independent
// flags.
func (f *DiffFacts) Ops(next *DiffFacts) []Op {
	var ops []Op
	if f.name != next.name {
		ops = append(ops, OpName)
	} else if f.version != next.version {
		ops = append(ops, OpVersion)
	}
	if f.description != next.description {
		ops = append(ops, OpDescription)
	}
	if !slices.Equal(f.deps, next.deps) {
		ops = append(ops, OpDependency)
	}
	if !f.sameSource(next) {
		ops = append(ops, OpCode)
	}
	return ops
}

// sameSource reports whether two artifacts' MergedSource streams are equal,
// walking both piece lists at once.
func (f *DiffFacts) sameSource(o *DiffFacts) bool {
	if f.sourceLen != o.sourceLen {
		return false
	}
	a, b := f.source, o.source
	var x, y string
	for {
		for x == "" && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for y == "" && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if x == "" || y == "" {
			return x == y
		}
		n := min(len(x), len(y))
		if x[:n] != y[:n] {
			return false
		}
		x, y = x[n:], y[n:]
	}
}

// ChangedLines counts how many source lines differ between f and next with
// an LCS-free multiset diff: lines present in one side but not the other,
// halved (a one-line edit counts as ~1, matching the paper's "average 0.88
// lines changed" measurement style). It is one merge walk of the two sorted
// line lists.
func (f *DiffFacts) ChangedLines(next *DiffFacts) int {
	a, b := f.lines, next.lines
	common := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c == 0:
			common++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return (len(a) + len(b) - 2*common + 1) / 2
}

// ManifestDeps extracts the declared dependency names from an artifact's
// manifest. It understands the three manifest formats emitted by this
// package; depscan performs the fuller, registry-grade parse.
func ManifestDeps(a *ecosys.Artifact) []string {
	m, ok := a.Manifest()
	if !ok {
		return nil
	}
	var deps []string
	switch a.Coord.Ecosystem {
	case ecosys.PyPI:
		for _, line := range strings.Split(m.Content, "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				deps = append(deps, line)
			}
		}
	case ecosys.RubyGems:
		for _, line := range strings.Split(m.Content, "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "s.add_dependency "); ok {
				deps = append(deps, strings.Trim(rest, "\"'"))
			}
		}
	default:
		// package.json "dependencies": {"a": "^1.0.0", ...}
		_, after, found := strings.Cut(m.Content, "\"dependencies\": {")
		if !found {
			return nil
		}
		inner, _, found := strings.Cut(after, "}")
		if !found {
			return nil
		}
		for _, pair := range strings.Split(inner, ",") {
			name, _, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok {
				continue
			}
			name = strings.Trim(strings.TrimSpace(name), "\"")
			if name != "" {
				deps = append(deps, name)
			}
		}
	}
	return deps
}

package depscan

import (
	"sort"
	"strings"

	"malgraph/internal/ecosys"
)

// Corpus-scale note: §III-C searches every malicious package name inside
// every package's source. Done literally that is |names| × |packages| string
// scans. ExtractImports inverts the search: each source file is parsed once
// for import/require statements and the imported names are then matched
// against the corpus dictionary in O(1) — identical confirmed matches, linear
// cost.
//
// The statements are these six patterns, written as RE2 regular expressions
// (`\s` is [\t\n\f\r ], `\w` is ASCII [0-9A-Za-z_]):
//
//	Python  (?m)^\s*import\s+([\w.]+)
//	        (?m)^\s*from\s+([\w.]+)\s+import\b
//	Ruby    (?m)^\s*require\s+['"]([\w./-]+)['"]
//	JS      require\(\s*['"]([\w./@-]+)['"]\s*\)
//	        import\s+[\w.{},*$\s]*?from\s+['"]([\w./@-]+)['"]
//	        import\s+['"]([\w./@-]+)['"]
//
// Each has a hand-written scanner that reports exactly the matches
// regexp.FindAllStringSubmatchIndex would — leftmost-first, non-overlapping,
// `\s` spanning newlines — at a fraction of the backtracker's cost. The
// tests keep the regexps as the oracle.

// Byte classes of the patterns, one bit each.
const (
	cSpace  = 1 << iota // \s
	cWord               // \w
	cPyName             // [\w.]
	cRbName             // [\w./-]
	cJSName             // [\w./@-]
	cClause             // [\w.{},*$\s], the lazy run between import and from
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte("\t\n\f\r ") {
		t[c] |= cSpace | cClause
	}
	for c := 0; c < 256; c++ {
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' {
			t[c] |= cWord | cPyName | cRbName | cJSName | cClause
		}
	}
	t['.'] |= cPyName | cRbName | cJSName | cClause
	for _, c := range []byte("/-") {
		t[c] |= cRbName | cJSName
	}
	t['@'] |= cJSName
	for _, c := range []byte("{},*$") {
		t[c] |= cClause
	}
	return t
}()

// match is one pattern match in FindAllStringSubmatchIndex layout: the
// match's start and end, then the start and end of the imported name.
type match [4]int

// importPattern is one statement pattern's scanner. Its matches of an
// (?m)^-anchored pattern start a line, so none sits in a line comment and
// only the JS matches need the InComment filter.
type importPattern struct {
	scan     func(s string, emit func(match))
	anchored bool
}

var (
	pyPatterns = []importPattern{{scanPyImport, true}, {scanPyFromImport, true}}
	rbPatterns = []importPattern{{scanRbRequire, true}}
	jsPatterns = []importPattern{{scanJSRequire, false}, {scanJSImportFrom, false}, {scanJSImportBare, false}}
)

// patternsFor returns the statement patterns scanned in a source file.
func patternsFor(path string) []importPattern {
	switch {
	case strings.HasSuffix(path, ".py"):
		return pyPatterns
	case strings.HasSuffix(path, ".rb"):
		return rbPatterns
	default:
		return jsPatterns
	}
}

// ExtractImports returns the set of top-level module names imported by the
// artifact's source files, with comment-line references filtered out.
func ExtractImports(a *ecosys.Artifact) []string {
	found := make(map[string]bool)
	for _, f := range a.SourceFiles() {
		content := f.Content
		for _, p := range patternsFor(f.Path) {
			p.scan(content, func(m match) {
				if !p.anchored && InComment(content, m[0]) {
					return
				}
				found[topLevel(content[m[2]:m[3]])] = true
			})
		}
	}
	out := make([]string, 0, len(found))
	for name := range found {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dependencies returns the names the artifact depends on through either
// §III-C channel, manifest declarations and source imports: deduplicated,
// sorted and without the artifact's own name. It is the engine's
// linear-time scan in place of the paper's per-name probe of the corpus.
func (s *Scanner) Dependencies(a *ecosys.Artifact) ([]string, error) {
	manifest, err := s.FromManifest(a)
	if err != nil {
		return nil, err
	}
	imported := ExtractImports(a)
	seen := make(map[string]bool, len(manifest)+len(imported))
	deps := make([]string, 0, len(manifest)+len(imported))
	for _, list := range [][]string{manifest, imported} {
		for _, d := range list {
			if d == a.Coord.Name || seen[d] {
				continue
			}
			seen[d] = true
			deps = append(deps, d)
		}
	}
	sort.Strings(deps)
	return deps, nil
}

// indexFrom returns the index of the first kw in s at or after i, or -1.
func indexFrom(s string, i int, kw string) int {
	if n := strings.Index(s[i:], kw); n >= 0 {
		return i + n
	}
	return -1
}

// skip returns the first index at or after i whose byte is outside class.
func skip(s string, i int, class uint8) int {
	for i < len(s) && byteClass[s[i]]&class != 0 {
		i++
	}
	return i
}

// spaces matches \s+ at i: the end of the whitespace run, or -1 when s[i]
// is not whitespace.
func spaces(s string, i int) int {
	if i >= len(s) || byteClass[s[i]]&cSpace == 0 {
		return -1
	}
	return skip(s, i+1, cSpace)
}

// quoted matches ['"](name+)['"] at i, the quotes independent of each
// other: the name's bounds, or ok false.
func quoted(s string, i int, class uint8) (lo, hi int, ok bool) {
	if i >= len(s) || s[i] != '\'' && s[i] != '"' {
		return 0, 0, false
	}
	lo = i + 1
	hi = skip(s, lo, class)
	if hi == lo || hi >= len(s) || s[hi] != '\'' && s[hi] != '"' {
		return 0, 0, false
	}
	return lo, hi, true
}

// lineStart returns where an (?m)^\s* prefix reaching the keyword at k
// starts: the first line start in the whitespace run that ends at k, or -1
// when the run holds none. The runs before distinct keywords are disjoint,
// so the walk back costs O(len(s)) over a whole scan.
func lineStart(s string, k int) int {
	j := k
	for j > 0 && byteClass[s[j-1]]&cSpace != 0 {
		j--
	}
	if j == 0 {
		return 0
	}
	if n := strings.IndexByte(s[j:k], '\n'); n >= 0 {
		return j + n + 1
	}
	return -1
}

// scanPyImport scans (?m)^\s*import\s+([\w.]+).
func scanPyImport(s string, emit func(match)) {
	for i := 0; ; {
		k := indexFrom(s, i, "import")
		if k < 0 {
			return
		}
		i = k + 1
		start := lineStart(s, k)
		lo := spaces(s, k+len("import"))
		if start < 0 || lo < 0 {
			continue
		}
		hi := skip(s, lo, cPyName)
		if hi == lo {
			continue
		}
		emit(match{start, hi, lo, hi})
		i = hi
	}
}

// scanPyFromImport scans (?m)^\s*from\s+([\w.]+)\s+import\b.
func scanPyFromImport(s string, emit func(match)) {
	for i := 0; ; {
		k := indexFrom(s, i, "from")
		if k < 0 {
			return
		}
		i = k + 1
		start := lineStart(s, k)
		lo := spaces(s, k+len("from"))
		if start < 0 || lo < 0 {
			continue
		}
		hi := skip(s, lo, cPyName)
		if hi == lo {
			continue
		}
		kw := spaces(s, hi)
		if kw < 0 || !strings.HasPrefix(s[kw:], "import") {
			continue
		}
		end := kw + len("import")
		if end < len(s) && byteClass[s[end]]&cWord != 0 {
			continue // \b: "importlib" is not the keyword
		}
		emit(match{start, end, lo, hi})
		i = end
	}
}

// scanRbRequire scans (?m)^\s*require\s+['"]([\w./-]+)['"].
func scanRbRequire(s string, emit func(match)) {
	for i := 0; ; {
		k := indexFrom(s, i, "require")
		if k < 0 {
			return
		}
		i = k + 1
		start := lineStart(s, k)
		q := spaces(s, k+len("require"))
		if start < 0 || q < 0 {
			continue
		}
		lo, hi, ok := quoted(s, q, cRbName)
		if !ok {
			continue
		}
		emit(match{start, hi + 1, lo, hi})
		i = hi + 1
	}
}

// scanJSRequire scans require\(\s*['"]([\w./@-]+)['"]\s*\).
func scanJSRequire(s string, emit func(match)) {
	for i := 0; ; {
		k := indexFrom(s, i, "require(")
		if k < 0 {
			return
		}
		i = k + 1
		lo, hi, ok := quoted(s, skip(s, k+len("require("), cSpace), cJSName)
		if !ok {
			continue
		}
		end := skip(s, hi+1, cSpace)
		if end >= len(s) || s[end] != ')' {
			continue
		}
		emit(match{k, end + 1, lo, hi})
		i = end + 1
	}
}

// scanJSImportBare scans import\s+['"]([\w./@-]+)['"].
func scanJSImportBare(s string, emit func(match)) {
	for i := 0; ; {
		k := indexFrom(s, i, "import")
		if k < 0 {
			return
		}
		i = k + 1
		q := spaces(s, k+len("import"))
		if q < 0 {
			continue
		}
		lo, hi, ok := quoted(s, q, cJSName)
		if !ok {
			continue
		}
		emit(match{k, hi + 1, lo, hi})
		i = hi + 1
	}
}

// scanJSImportFrom scans import\s+[\w.{},*$\s]*?from\s+['"]([\w./@-]+)['"].
// The clause is lazy, so a match ends at the first "from" inside the
// clause run whose quoted specifier matches; a "from" whose specifier does
// not match is clause text, and the run goes on past it.
func scanJSImportFrom(s string, emit func(match)) {
	// The last clause search found its first matching "from" at found, or
	// -1 when its clause run ended at runEnd without one. c only grows, so
	// the answer holds for every later import inside that run; reusing it
	// keeps the scan linear.
	found, runEnd := -1, -1
	for i := 0; ; {
		k := indexFrom(s, i, "import")
		if k < 0 {
			return
		}
		i = k + 1
		c := k + len("import")
		if c >= len(s) || byteClass[s[c]]&cSpace == 0 {
			continue
		}
		c++ // \s+ takes one byte; the rest of the clause is the lazy run
		if found >= 0 && found < c || found < 0 && c > runEnd {
			found, runEnd = fromSpecifier(s, c)
		}
		if found < 0 {
			continue
		}
		lo, hi, _ := quoted(s, spaces(s, found+len("from")), cJSName)
		emit(match{k, hi + 1, lo, hi})
		i = hi + 1
	}
}

// fromSpecifier returns the first t at or after i such that s[i:t] is
// clause text and from\s+['"]([\w./@-]+)['"] matches at t, or -1 and the
// end of the clause run when there is none.
func fromSpecifier(s string, i int) (t, runEnd int) {
	for t = i; t < len(s) && byteClass[s[t]]&cClause != 0; t++ {
		if s[t] != 'f' || !strings.HasPrefix(s[t:], "from") {
			continue
		}
		if q := spaces(s, t+len("from")); q >= 0 {
			if _, _, ok := quoted(s, q, cJSName); ok {
				return t, 0
			}
		}
	}
	return -1, t
}

// topLevel reduces "pygrata.utils" or "./lib/x" to the installable package
// name the registry knows.
func topLevel(name string) string {
	name = strings.TrimPrefix(name, "./")
	name = strings.TrimPrefix(name, "../")
	if i := strings.IndexByte(name, '.'); i > 0 && !strings.Contains(name, "/") {
		name = name[:i]
	}
	if i := strings.IndexByte(name, '/'); i > 0 && !strings.HasPrefix(name, "@") {
		name = name[:i]
	}
	return name
}

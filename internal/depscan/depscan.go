// Package depscan extracts dependency relationships from packages, following
// §III-C: (1) parse the manifest (package.json / requirements.txt / gemspec)
// for declared dependencies, (2) locate each known-malicious package name in
// the source, cut a 100-character window around the match, and test the
// window against the import/require regular expressions of Table II,
// (3) filter false positives such as mentions inside code comments.
package depscan

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"malgraph/internal/ecosys"
)

// WindowSize is the character window cut around a name match (§III-C step 3).
const WindowSize = 100

// Match is one dependency reference found in source code.
type Match struct {
	Dep     string // the referenced package name
	File    string // path of the file containing the reference
	Window  string // the ±100-char excerpt around the match
	Pattern string // which Table II pattern confirmed the reference
}

// Scanner holds the compiled Table II patterns. A Scanner is immutable and
// safe for concurrent use.
type Scanner struct {
	patterns []tablePattern
}

type tablePattern struct {
	name string
	re   *regexp.Regexp
}

// NewScanner compiles the Table II regular expressions (adapted to RE2).
// The %s placeholder is substituted with the quoted dependency name so each
// probe is anchored on the package we are testing for.
func NewScanner() *Scanner {
	specs := []struct{ name, expr string }{
		// import X from 'dep' / import {a} from "dep"
		{"es-import-from", `import\s+[\w.{},*$\s/]+?\s+from\s+['"]%s['"]`},
		// from dep import a, b
		{"py-from-import", `from\s+%s(\.[\w.]+)?\s+import\s+`},
		// import 'dep' / import "dep" (side-effect import)
		{"es-side-effect-import", `import\s+['"]%s['"]`},
		// import dep / import dep.sub
		{"py-plain-import", `import\s+%s(\s|$|\.|,|;)`},
		// const x = require('dep'), let/var forms
		{"js-assigned-require", `(const|let|var)\s+[\w.{},$\s]+=\s*require\(\s*['"]%s['"]\s*\)`},
		// bare require('dep')
		{"js-require", `require\(\s*['"]%s['"]\s*\)`},
		// ruby require 'dep'
		{"rb-require", `require\s+['"]%s['"]`},
	}
	s := &Scanner{patterns: make([]tablePattern, 0, len(specs))}
	for _, spec := range specs {
		s.patterns = append(s.patterns, tablePattern{name: spec.name, re: nil})
		// The regexps are instantiated per dependency name via template; we
		// keep the raw template and compile on demand with a small cache.
		s.patterns[len(s.patterns)-1].re = regexp.MustCompile(strings.ReplaceAll(spec.expr, "%s", `__DEP__`))
		_ = spec
	}
	return s
}

// matchPattern instantiates a template pattern for one dependency name.
// Compilation is cheap relative to corpus scanning and keeps Scanner
// stateless; dependency names are escaped so squats like "c++lib" stay safe.
func (p tablePattern) forDep(dep string) *regexp.Regexp {
	return regexp.MustCompile(strings.ReplaceAll(p.re.String(), "__DEP__", regexp.QuoteMeta(dep)))
}

// FromManifest parses the artifact's manifest into declared dependency names
// (§III-C step 2). Unknown or missing manifests yield an empty slice.
func (s *Scanner) FromManifest(a *ecosys.Artifact) ([]string, error) {
	m, ok := a.Manifest()
	if !ok {
		return nil, nil
	}
	switch a.Coord.Ecosystem {
	case ecosys.PyPI:
		return parseRequirements(m.Content), nil
	case ecosys.RubyGems:
		return parseGemspec(m.Content), nil
	default:
		return parsePackageJSON(m.Content)
	}
}

var requirementSplit = regexp.MustCompile(`[=<>!~;\[\s]`)

func parseRequirements(content string) []string {
	var deps []string
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "-") {
			continue
		}
		name := requirementSplit.Split(line, 2)[0]
		if name != "" {
			deps = append(deps, name)
		}
	}
	return deps
}

var gemDependencyRe = regexp.MustCompile(`add(_runtime|_development)?_dependency\s*\(?\s*['"]([\w.-]+)['"]`)

func parseGemspec(content string) []string {
	var deps []string
	for _, m := range gemDependencyRe.FindAllStringSubmatch(content, -1) {
		deps = append(deps, m[2])
	}
	return deps
}

func parsePackageJSON(content string) ([]string, error) {
	var manifest struct {
		Dependencies    map[string]string `json:"dependencies"`
		DevDependencies map[string]string `json:"devDependencies"`
	}
	if err := json.Unmarshal([]byte(content), &manifest); err != nil {
		return nil, fmt.Errorf("package.json parse: %w", err)
	}
	deps := make([]string, 0, len(manifest.Dependencies)+len(manifest.DevDependencies))
	for name := range manifest.Dependencies {
		deps = append(deps, name)
	}
	for name := range manifest.DevDependencies {
		deps = append(deps, name)
	}
	sortStrings(deps)
	return deps, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FromSource scans the artifact's source files for references to any of the
// candidate names (§III-C step 3): exact string match → 100-char window →
// Table II regex confirmation → comment filtering.
func (s *Scanner) FromSource(a *ecosys.Artifact, candidates map[string]bool) []Match {
	if len(candidates) == 0 {
		return nil
	}
	var out []Match
	for _, f := range a.SourceFiles() {
		for dep := range candidates {
			if dep == a.Coord.Name {
				continue // self-references are not dependencies
			}
			out = append(out, s.scanFile(f, dep)...)
		}
	}
	// Deterministic order for reproducible pipelines.
	sortMatches(out)
	return out
}

func (s *Scanner) scanFile(f ecosys.File, dep string) []Match {
	var out []Match
	content := f.Content
	offset := 0
	for {
		idx := strings.Index(content[offset:], dep)
		if idx < 0 {
			break
		}
		pos := offset + idx
		window := cutWindow(content, pos, len(dep))
		if pat, ok := s.confirm(window, dep); ok && !InComment(content, pos) {
			out = append(out, Match{Dep: dep, File: f.Path, Window: window, Pattern: pat})
			break // one confirmed reference per (file, dep) is enough
		}
		offset = pos + len(dep)
	}
	return out
}

func cutWindow(content string, pos, matchLen int) string {
	start := pos - WindowSize/2
	if start < 0 {
		start = 0
	}
	end := pos + matchLen + WindowSize/2
	if end > len(content) {
		end = len(content)
	}
	return content[start:end]
}

func (s *Scanner) confirm(window, dep string) (string, bool) {
	for _, p := range s.patterns {
		if p.forDep(dep).MatchString(window) {
			return p.name, true
		}
	}
	return "", false
}

// InComment reports whether the byte at pos sits inside a line comment
// (#, //) — the false-positive class §III-C step 4 filters manually.
func InComment(content string, pos int) bool {
	lineStart := strings.LastIndexByte(content[:pos], '\n') + 1
	line := content[lineStart:pos]
	if i := strings.Index(line, "#"); i >= 0 {
		return true
	}
	if i := strings.Index(line, "//"); i >= 0 {
		return true
	}
	return false
}

func sortMatches(ms []Match) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && less(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func less(a, b Match) bool {
	if a.Dep != b.Dep {
		return a.Dep < b.Dep
	}
	return a.File < b.File
}

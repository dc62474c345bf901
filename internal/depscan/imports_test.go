package depscan

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
	"malgraph/internal/world"
)

// The regexps ExtractImports' scanners implement, kept as their oracle, in
// the order of each language's importPattern list.
var (
	pyRes = []*regexp.Regexp{
		regexp.MustCompile(`(?m)^\s*import\s+([\w.]+)`),
		regexp.MustCompile(`(?m)^\s*from\s+([\w.]+)\s+import\b`),
	}
	rbRes = []*regexp.Regexp{
		regexp.MustCompile(`(?m)^\s*require\s+['"]([\w./-]+)['"]`),
	}
	jsRes = []*regexp.Regexp{
		regexp.MustCompile(`require\(\s*['"]([\w./@-]+)['"]\s*\)`),
		regexp.MustCompile(`import\s+[\w.{},*$\s]*?from\s+['"]([\w./@-]+)['"]`),
		regexp.MustCompile(`import\s+['"]([\w./@-]+)['"]`),
	}
)

// oracleFor returns the regexps of a source path's language.
func oracleFor(path string) []*regexp.Regexp {
	switch {
	case strings.HasSuffix(path, ".py"):
		return pyRes
	case strings.HasSuffix(path, ".rb"):
		return rbRes
	default:
		return jsRes
	}
}

// oracleImports is ExtractImports computed with the regexps: every match
// outside a line comment, reduced to its top-level name.
func oracleImports(a *ecosys.Artifact) []string {
	found := make(map[string]bool)
	for _, f := range a.SourceFiles() {
		for _, re := range oracleFor(f.Path) {
			for _, m := range re.FindAllStringSubmatchIndex(f.Content, -1) {
				if !InComment(f.Content, m[0]) {
					found[topLevel(f.Content[m[2]:m[3]])] = true
				}
			}
		}
	}
	out := make([]string, 0, len(found))
	for name := range found {
		out = append(out, name)
	}
	sortStrings(out)
	return out
}

// checkOracle requires every scanner to report exactly its regexp's
// matches in content (bounds of the match and of the name, in order), and
// ExtractImports to equal oracleImports on a one-file artifact.
func checkOracle(t testing.TB, path, content string) {
	t.Helper()
	res := oracleFor(path)
	for i, p := range patternsFor(path) {
		var got [][]int
		p.scan(content, func(m match) { got = append(got, m[:]) })
		want := res[i].FindAllStringSubmatchIndex(content, -1)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pattern %s on %q: scanner %v, regexp %v", path, res[i], content, got, want)
			}
		}
	}
	a := npmArtifact("self", ecosys.File{Path: path, Content: content})
	if got, want := ExtractImports(a), oracleImports(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s imports of %q: scanner %v, regexp %v", path, content, got, want)
	}
}

func TestExtractImportsPython(t *testing.T) {
	a := pyArtifact("pkg", ecosys.File{Path: "setup.py", Content: `import os
import pygrata.utils
from urllib import request
# import commented
x = "import fake"
`})
	got := ExtractImports(a)
	joined := strings.Join(got, ",")
	for _, want := range []string{"os", "pygrata", "urllib"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("imports = %v, missing %q", got, want)
		}
	}
	if strings.Contains(joined, "commented") || strings.Contains(joined, "fake") {
		t.Fatalf("imports = %v contains filtered entries", got)
	}
}

func TestExtractImportsJS(t *testing.T) {
	a := npmArtifact("pkg", ecosys.File{Path: "index.js", Content: `const u = require('util');
import icons from 'icons';
import 'side-effect-pkg';
const local = require('./lib/x');
// const no = require('commented');
`})
	got := ExtractImports(a)
	joined := strings.Join(got, ",")
	for _, want := range []string{"util", "icons", "side-effect-pkg", "lib"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("imports = %v, missing %q", got, want)
		}
	}
	if strings.Contains(joined, "commented") {
		t.Fatalf("imports = %v contains comment", got)
	}
}

func TestExtractImportsRuby(t *testing.T) {
	a := ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.RubyGems, Name: "g", Version: "1"}, "",
		[]ecosys.File{{Path: "main.rb", Content: "require 'rest-client'\nrequire 'net/http'\n"}})
	got := ExtractImports(a)
	joined := strings.Join(got, ",")
	if !strings.Contains(joined, "rest-client") || !strings.Contains(joined, "net") {
		t.Fatalf("imports = %v", got)
	}
}

func TestTopLevel(t *testing.T) {
	cases := map[string]string{
		"pygrata.utils": "pygrata",
		"./lib/x":       "lib",
		"../up":         "up",
		"net/http":      "net",
		"@scope/pkg":    "@scope/pkg",
		"plain":         "plain",
	}
	for in, want := range cases {
		if got := topLevel(in); got != want {
			t.Errorf("topLevel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestScannersMatchRegexps(t *testing.T) {
	cases := map[string][]string{
		".py": {
			"", "import", "import ", "import os", "\n\n  \n\timport os\n", "import\nimport x",
			"x = 1; import os\nimport sys", "  # import commented\nimport a.b.c, d",
			"from a import b", "from a importlib", "from a import", "from a.b  import\tc",
			"from\na\nimport\nb", "xfrom a import b\nfrom . import x", "importlib\nimport é\nimport \xffos",
			"from ñ import x\r\nfrom  os import  path", "\v import os\n\f import sys",
		},
		".rb": {
			"require 'a'", "  require \"net/http\"\nrequire 'x\"", "require'a'", "# require 'a'\nrequire 'b-c.d'",
			"x require 'a'\n\nrequire  'ok'", "require '@scope/pkg'", "require ''",
		},
		".js": {
			"require('a') // require('b')", "require( 'a' )", "require(\"a\"\n)", "require('x\")", "require('a' ",
			"import {a, b}\nfrom 'c'", "import x from 'y'", "import * as z from \"@s/p\"", "import 'side'",
			"import a from b from 'c'", "import a fromage from 'd'", "import a from 'b' from 'c'",
			"import x import y from 'z'", "import $, {x} from 'jq'", "import {a from 'b'} from 'c'", "import é from 'x'",
			"const c = '#fff'; require('evil2')", "const u = \"https://cdn\"; require('evil')",
			"import\tfrom 'x'", "import from'x'", "import a from\t\"b'", "importimport x from 'y'",
		},
	}
	for ext, contents := range cases {
		for _, content := range contents {
			checkOracle(t, "src/main"+ext, content)
		}
	}
}

// fuzzLangs maps FuzzExtractImports' language byte to a source path.
var fuzzLangs = []string{"main.py", "main.rb", "index.js"}

// FuzzExtractImports holds the hand-written scanners to the regexps on
// arbitrary content: the same matches per pattern and the same import list.
// Seeds live in testdata/fuzz/FuzzExtractImports.
func FuzzExtractImports(f *testing.F) {
	f.Fuzz(func(t *testing.T, content string, lang byte) {
		checkOracle(t, fuzzLangs[int(lang)%len(fuzzLangs)], content)
	})
}

// worldArtifacts returns every released package artifact of the world at
// seed 1 and the given scale.
func worldArtifacts(tb testing.TB, scale float64) []*ecosys.Artifact {
	tb.Helper()
	w, err := world.Build(world.Config{Seed: 1, Scale: scale})
	if err != nil {
		tb.Fatal(err)
	}
	var out []*ecosys.Artifact
	for _, c := range w.Campaigns {
		for _, rec := range c.Packages {
			out = append(out, rec.Artifact)
		}
	}
	return out
}

func TestExtractImportsMatchesRegexpsOnWorld(t *testing.T) {
	arts := worldArtifacts(t, 0.05)
	if len(arts) == 0 {
		t.Fatal("empty world")
	}
	for _, a := range arts {
		for _, f := range a.SourceFiles() {
			checkOracle(t, f.Path, f.Content)
		}
		if got, want := ExtractImports(a), oracleImports(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scanner %v, regexp %v", a.Coord, got, want)
		}
	}
}

// BenchmarkExtractImports scans every source file of the bench-scale world
// (MALGRAPH_BENCH_SCALE, default 0.05), one sub-benchmark per language.
func BenchmarkExtractImports(b *testing.B) {
	scale := 0.05
	if v, err := strconv.ParseFloat(os.Getenv("MALGRAPH_BENCH_SCALE"), 64); err == nil && v > 0 {
		scale = v
	}
	byExt := make(map[string][]*ecosys.Artifact)
	for _, a := range worldArtifacts(b, scale) {
		for _, f := range a.SourceFiles() {
			ext := f.Path[strings.LastIndexByte(f.Path, '.'):]
			byExt[ext] = append(byExt[ext], ecosys.NewArtifact(a.Coord, "", []ecosys.File{f}))
		}
	}
	for _, ext := range []string{".py", ".js", ".rb"} {
		arts := byExt[ext]
		if len(arts) == 0 {
			continue
		}
		var size int64
		for _, a := range arts {
			size += int64(len(a.Files[0].Content))
		}
		b.Run(ext[1:], func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				for _, a := range arts {
					ExtractImports(a)
				}
			}
		})
	}
}

func TestDependenciesAgreesWithMaliciousDeps(t *testing.T) {
	a := pyArtifact("loglib-modules",
		ecosys.File{Path: "requirements.txt", Content: "pygrata\nrequests\nloglib-modules\n"},
		ecosys.File{Path: "setup.py", Content: "import urllib\nimport os\n"},
	)
	corpus := map[string]bool{"pygrata": true, "urllib": true, "loglib-modules": true}
	s := NewScanner()
	slow, err := s.MaliciousDeps(a, corpus)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := s.Dependencies(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"os", "pygrata", "requests", "urllib"}; !reflect.DeepEqual(deps, want) {
		t.Fatalf("Dependencies = %v, want %v", deps, want)
	}
	var fast []string
	for _, d := range deps {
		if corpus[d] {
			fast = append(fast, d)
		}
	}
	if !reflect.DeepEqual(slow, fast) {
		t.Fatalf("Dependencies ∩ corpus %v != MaliciousDeps %v", fast, slow)
	}
}

func TestDependenciesBadManifest(t *testing.T) {
	a := npmArtifact("bad", ecosys.File{Path: "package.json", Content: "{oops"})
	if _, err := NewScanner().Dependencies(a); err == nil {
		t.Fatal("bad manifest must propagate error")
	}
}

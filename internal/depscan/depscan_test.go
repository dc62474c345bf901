package depscan

import (
	"strings"
	"testing"

	"malgraph/internal/ecosys"
)

func pyArtifact(name string, files ...ecosys.File) *ecosys.Artifact {
	return ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "1.0.0"}, "", files)
}

func npmArtifact(name string, files ...ecosys.File) *ecosys.Artifact {
	return ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.NPM, Name: name, Version: "1.0.0"}, "", files)
}

func TestFromManifestRequirements(t *testing.T) {
	a := pyArtifact("loglib-modules", ecosys.File{
		Path:    "requirements.txt",
		Content: "pygrata==1.0.0\nrequests>=2.0\n# a comment\n\ncolorama\n",
	})
	s := NewScanner()
	deps, err := s.FromManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pygrata", "requests", "colorama"}
	if len(deps) != len(want) {
		t.Fatalf("deps = %v, want %v", deps, want)
	}
	for i := range want {
		if deps[i] != want[i] {
			t.Fatalf("deps = %v, want %v", deps, want)
		}
	}
}

func TestFromManifestPackageJSON(t *testing.T) {
	a := npmArtifact("front", ecosys.File{
		Path:    "package.json",
		Content: `{"name":"front","version":"1.0.0","dependencies":{"util":"^1.0.0","icons":"2.x"},"devDependencies":{"mocha":"*"}}`,
	})
	s := NewScanner()
	deps, err := s.FromManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(deps, ",")
	for _, want := range []string{"util", "icons", "mocha"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("deps = %v, missing %q", deps, want)
		}
	}
}

func TestFromManifestPackageJSONInvalid(t *testing.T) {
	a := npmArtifact("bad", ecosys.File{Path: "package.json", Content: "{broken"})
	if _, err := NewScanner().FromManifest(a); err == nil {
		t.Fatal("invalid package.json must error")
	}
}

func TestFromManifestGemspec(t *testing.T) {
	a := ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.RubyGems, Name: "g", Version: "1"}, "",
		[]ecosys.File{{
			Path: "package.gemspec",
			Content: `Gem::Specification.new do |s|
  s.name = "g"
  s.add_dependency "rest-client"
  s.add_runtime_dependency("nokogiri")
  s.add_development_dependency 'rspec'
end`,
		}})
	deps, err := NewScanner().FromManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(deps, ",")
	for _, want := range []string{"rest-client", "nokogiri", "rspec"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("gemspec deps = %v, missing %q", deps, want)
		}
	}
}

func TestFromManifestMissing(t *testing.T) {
	a := pyArtifact("bare")
	deps, err := NewScanner().FromManifest(a)
	if err != nil || len(deps) != 0 {
		t.Fatalf("missing manifest: deps=%v err=%v", deps, err)
	}
}

func TestFromSourcePythonImports(t *testing.T) {
	cases := []string{
		"import pygrata\n",
		"import pygrata.core\n",
		"from pygrata import utils\n",
		"from pygrata.sub import thing\n",
	}
	s := NewScanner()
	for _, src := range cases {
		a := pyArtifact("loglib-modules", ecosys.File{Path: "setup.py", Content: src})
		ms := s.FromSource(a, map[string]bool{"pygrata": true})
		if len(ms) != 1 || ms[0].Dep != "pygrata" {
			t.Fatalf("src %q: matches = %v", src, ms)
		}
		if len(ms[0].Window) > WindowSize+len("pygrata")+1 {
			t.Fatalf("window too large: %d", len(ms[0].Window))
		}
	}
}

func TestFromSourceJSRequires(t *testing.T) {
	cases := []string{
		"const u = require('util');\n",
		"let u = require(\"util\");\n",
		"var u = require('util');\n",
		"require('util');\n",
		"import util from 'util';\n",
		"import 'util';\n",
		"import { x } from 'util';\n",
	}
	s := NewScanner()
	for _, src := range cases {
		a := npmArtifact("front", ecosys.File{Path: "index.js", Content: src})
		ms := s.FromSource(a, map[string]bool{"util": true})
		if len(ms) != 1 {
			t.Fatalf("src %q: matches = %v", src, ms)
		}
	}
}

func TestFromSourceRubyRequire(t *testing.T) {
	a := ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.RubyGems, Name: "g", Version: "1"}, "",
		[]ecosys.File{{Path: "main.rb", Content: "require 'rest-client'\n"}})
	ms := NewScanner().FromSource(a, map[string]bool{"rest-client": true})
	if len(ms) != 1 || ms[0].Pattern != "rb-require" {
		t.Fatalf("matches = %v", ms)
	}
}

func TestFromSourceIgnoresComments(t *testing.T) {
	cases := []struct {
		eco ecosys.Ecosystem
		src string
	}{
		{ecosys.PyPI, "# import pygrata\nx = 1\n"},
		{ecosys.NPM, "// const u = require('pygrata');\nlet y = 2;\n"},
		{ecosys.NPM, "let z = 1; // import pygrata from 'pygrata'\n"},
	}
	s := NewScanner()
	for _, tc := range cases {
		name, path := "pkg", "index.js"
		if tc.eco == ecosys.PyPI {
			path = "setup.py"
		}
		a := ecosys.NewArtifact(ecosys.Coord{Ecosystem: tc.eco, Name: name, Version: "1"}, "",
			[]ecosys.File{{Path: path, Content: tc.src}})
		if ms := s.FromSource(a, map[string]bool{"pygrata": true}); len(ms) != 0 {
			t.Fatalf("comment not filtered for %q: %v", tc.src, ms)
		}
	}
}

func TestFromSourceIgnoresBareMention(t *testing.T) {
	// The name appearing in a string or identifier without import syntax is
	// not a dependency.
	a := pyArtifact("pkg", ecosys.File{Path: "setup.py", Content: "x = 'I like pygrata a lot'\npygrata_style = 3\n"})
	if ms := NewScanner().FromSource(a, map[string]bool{"pygrata": true}); len(ms) != 0 {
		t.Fatalf("bare mention matched: %v", ms)
	}
}

func TestFromSourceSkipsSelfReference(t *testing.T) {
	a := pyArtifact("pygrata", ecosys.File{Path: "setup.py", Content: "import pygrata\n"})
	if ms := NewScanner().FromSource(a, map[string]bool{"pygrata": true}); len(ms) != 0 {
		t.Fatalf("self reference matched: %v", ms)
	}
}

func TestFromSourceLaterConfirmedMatch(t *testing.T) {
	// First occurrence is a bare mention, second is a real import; the
	// scanner must keep searching past the unconfirmed hit.
	src := "banner = 'pygrata'\nimport pygrata\n"
	a := pyArtifact("pkg", ecosys.File{Path: "setup.py", Content: src})
	ms := NewScanner().FromSource(a, map[string]bool{"pygrata": true})
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestMaliciousDepsCombinesChannels(t *testing.T) {
	a := pyArtifact("loglib-modules",
		ecosys.File{Path: "requirements.txt", Content: "pygrata\nrequests\n"},
		ecosys.File{Path: "setup.py", Content: "import urllib\n"},
	)
	corpus := map[string]bool{"pygrata": true, "urllib": true, "loglib-modules": true}
	deps, err := NewScanner().MaliciousDeps(a, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0] != "pygrata" || deps[1] != "urllib" {
		t.Fatalf("deps = %v", deps)
	}
}

func TestMaliciousDepsExcludesSelfAndLegit(t *testing.T) {
	a := pyArtifact("pygrata-utils",
		ecosys.File{Path: "requirements.txt", Content: "pygrata-utils\nrequests\n"},
	)
	deps, err := NewScanner().MaliciousDeps(a, map[string]bool{"pygrata-utils": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 0 {
		t.Fatalf("self/legit deps leaked: %v", deps)
	}
}

func TestInComment(t *testing.T) {
	content := "x = 1 # import dep\nimport dep\n"
	commentPos := strings.Index(content, "import dep")
	realPos := strings.LastIndex(content, "import dep")
	if !InComment(content, commentPos) {
		t.Fatal("comment position not detected")
	}
	if InComment(content, realPos) {
		t.Fatal("real import flagged as comment")
	}
}

func TestWindowBounds(t *testing.T) {
	// Match at the very start/end of a file must not panic and must clamp.
	a := pyArtifact("pkg", ecosys.File{Path: "setup.py", Content: "import dep"})
	ms := NewScanner().FromSource(a, map[string]bool{"dep": true})
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Window != "import dep" {
		t.Fatalf("window = %q", ms[0].Window)
	}
}

func TestRegexEscapingInDepNames(t *testing.T) {
	// Dots and pluses in names must be treated literally.
	a := npmArtifact("pkg", ecosys.File{Path: "index.js", Content: "const x = require('lodashX1');\n"})
	// "lodash.1" would match "lodashX1" if the dot were a wildcard.
	if ms := NewScanner().FromSource(a, map[string]bool{"lodash.1": true}); len(ms) != 0 {
		t.Fatalf("unescaped dot matched: %v", ms)
	}
}

// MaliciousDeps returns the names from the malicious-corpus candidate set
// that this artifact depends on, combining the manifest channel and the
// confirmed source-scan channel (§III-C steps 2–4).
func (s *Scanner) MaliciousDeps(a *ecosys.Artifact, corpus map[string]bool) ([]string, error) {
	found := make(map[string]bool)
	manifestDeps, err := s.FromManifest(a)
	if err != nil {
		return nil, err
	}
	for _, d := range manifestDeps {
		if corpus[d] && d != a.Coord.Name {
			found[d] = true
		}
	}
	for _, m := range s.FromSource(a, corpus) {
		found[m.Dep] = true
	}
	out := make([]string, 0, len(found))
	for d := range found {
		out = append(out, d)
	}
	sortStrings(out)
	return out, nil
}

package codegen

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
	"malgraph/internal/xrand"
)

func testCoord(eco ecosys.Ecosystem) ecosys.Coord {
	return ecosys.Coord{Ecosystem: eco, Name: "evil-pkg", Version: "1.0.0"}
}

func TestInstantiateHasManifestAndSource(t *testing.T) {
	rng := xrand.New(1)
	for _, eco := range ecosys.Big3() {
		cb := NewCodeBase("cb1", eco, PayloadEnvExfil, rng.Derive(eco.String()))
		art := cb.Instantiate(testCoord(eco), Options{Description: "handy tool", Dependencies: []string{"urllib"}})
		if _, ok := art.Manifest(); !ok {
			t.Fatalf("%v: missing manifest", eco)
		}
		if len(art.SourceFiles()) == 0 {
			t.Fatalf("%v: no source files", eco)
		}
		if !strings.Contains(art.MergedSource(), cb.IoC.URL) {
			t.Fatalf("%v: payload URL not embedded", eco)
		}
	}
}

func TestSameCodeBaseIsTokenStable(t *testing.T) {
	rng := xrand.New(2)
	cb := NewCodeBase("cb", ecosys.PyPI, PayloadBeaconC2, rng)
	a := cb.Instantiate(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-a", Version: "1.0.0"}, Options{Description: "d"})
	b := cb.Instantiate(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-b", Version: "2.0.0"}, Options{Description: "d"})
	// Source bodies must be identical: only name/version/manifest move.
	if a.MergedSource() != b.MergedSource() {
		t.Fatal("same code base must render identical source for identical options")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("different coordinates must still hash differently (manifest embeds name)")
	}
}

func TestDifferentCodeBasesDiffer(t *testing.T) {
	rng := xrand.New(3)
	a := NewCodeBase("a", ecosys.NPM, PayloadEnvExfil, rng.Derive("a"))
	b := NewCodeBase("b", ecosys.NPM, PayloadWalletReplace, rng.Derive("b"))
	artA := a.Instantiate(testCoord(ecosys.NPM), Options{})
	artB := b.Instantiate(testCoord(ecosys.NPM), Options{})
	if artA.MergedSource() == artB.MergedSource() {
		t.Fatal("different code bases must produce different source")
	}
}

func TestIoCOverrideIsSmallDiff(t *testing.T) {
	rng := xrand.New(4)
	cb := NewCodeBase("cb", ecosys.NPM, PayloadBeaconC2, rng)
	coord := testCoord(ecosys.NPM)
	base := cb.Instantiate(coord, Options{})
	alt := RandomIoC(rng.Derive("alt"))
	changed := cb.Instantiate(coord, Options{IoCOverride: &alt})
	n := ChangedLines(base.MergedSource(), changed.MergedSource())
	if n == 0 {
		t.Fatal("IoC override must change the source")
	}
	if n > 4 {
		t.Fatalf("IoC override should be a small diff, got %d lines", n)
	}
}

func TestImportDepsAppearInSource(t *testing.T) {
	rng := xrand.New(5)
	for _, eco := range ecosys.Big3() {
		cb := NewCodeBase("cb", eco, PayloadEnvExfil, rng.Derive(eco.String()))
		art := cb.Instantiate(testCoord(eco), Options{ImportDeps: []string{"pygrata"}})
		src := art.MergedSource()
		if !strings.Contains(src, "pygrata") {
			t.Fatalf("%v: import dep missing from source", eco)
		}
	}
}

func TestManifestDepsRoundTrip(t *testing.T) {
	rng := xrand.New(6)
	want := []string{"urllib", "request"}
	for _, eco := range ecosys.Big3() {
		cb := NewCodeBase("cb", eco, PayloadEnvExfil, rng.Derive(eco.String()))
		art := cb.Instantiate(testCoord(eco), Options{Dependencies: want})
		got := ManifestDeps(art)
		if len(got) != len(want) {
			t.Fatalf("%v: deps = %v, want %v", eco, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: deps = %v, want %v", eco, got, want)
			}
		}
	}
}

func TestManifestDepsEmpty(t *testing.T) {
	rng := xrand.New(7)
	cb := NewCodeBase("cb", ecosys.NPM, PayloadEnvExfil, rng)
	art := cb.Instantiate(testCoord(ecosys.NPM), Options{})
	if got := ManifestDeps(art); len(got) != 0 {
		t.Fatalf("empty deps parsed as %v", got)
	}
}

func TestDiffOpsNameVsVersionExclusive(t *testing.T) {
	rng := xrand.New(8)
	cb := NewCodeBase("cb", ecosys.NPM, PayloadEnvExfil, rng)
	a := cb.Instantiate(ecosys.Coord{Ecosystem: ecosys.NPM, Name: "x", Version: "1.0.0"}, Options{Description: "d"})
	renamed := cb.Instantiate(ecosys.Coord{Ecosystem: ecosys.NPM, Name: "y", Version: "2.0.0"}, Options{Description: "d"})
	ops := diffOps(a, renamed)
	if !hasOp(ops, OpName) || hasOp(ops, OpVersion) {
		t.Fatalf("rename dominates version: got %v", ops)
	}
	bumped := cb.Instantiate(ecosys.Coord{Ecosystem: ecosys.NPM, Name: "x", Version: "1.0.1"}, Options{Description: "d"})
	ops = diffOps(a, bumped)
	if hasOp(ops, OpName) || !hasOp(ops, OpVersion) {
		t.Fatalf("version-only bump: got %v", ops)
	}
}

func TestDiffOpsFlags(t *testing.T) {
	rng := xrand.New(9)
	cb := NewCodeBase("cb", ecosys.PyPI, PayloadEnvExfil, rng)
	coord := testCoord(ecosys.PyPI)
	a := cb.Instantiate(coord, Options{Description: "one", Dependencies: []string{"urllib"}})

	b := cb.Instantiate(coord, Options{Description: "two", Dependencies: []string{"urllib"}})
	if ops := diffOps(a, b); !hasOp(ops, OpDescription) || hasOp(ops, OpDependency) || hasOp(ops, OpCode) {
		t.Fatalf("description-only diff: %v", ops)
	}

	c := cb.Instantiate(coord, Options{Description: "one", Dependencies: []string{"request"}})
	if ops := diffOps(a, c); !hasOp(ops, OpDependency) {
		t.Fatalf("dependency diff not detected: %v", ops)
	}

	alt := RandomIoC(rng.Derive("alt"))
	d := cb.Instantiate(coord, Options{Description: "one", Dependencies: []string{"urllib"}, IoCOverride: &alt})
	if ops := diffOps(a, d); !hasOp(ops, OpCode) {
		t.Fatalf("code diff not detected: %v", ops)
	}
}

func TestDiffOpsIdentical(t *testing.T) {
	rng := xrand.New(10)
	cb := NewCodeBase("cb", ecosys.NPM, PayloadEnvExfil, rng)
	a := cb.Instantiate(testCoord(ecosys.NPM), Options{Description: "d"})
	b := cb.Instantiate(testCoord(ecosys.NPM), Options{Description: "d"})
	if ops := diffOps(a, b); len(ops) != 0 {
		t.Fatalf("identical packages diff as %v", ops)
	}
}

func hasOp(ops []Op, want Op) bool {
	for _, o := range ops {
		if o == want {
			return true
		}
	}
	return false
}

// ChangedLines is the string form of DiffFacts.ChangedLines: a multiset
// diff of two sources' trimmed, non-empty lines, halved.
func ChangedLines(a, b string) int {
	countA := lineMultiset(a)
	countB := lineMultiset(b)
	diff := 0
	for line, n := range countA {
		if m := countB[line]; n > m {
			diff += n - m
		}
	}
	for line, n := range countB {
		if m := countA[line]; n > m {
			diff += n - m
		}
	}
	return (diff + 1) / 2
}

func lineMultiset(s string) map[string]int {
	out := make(map[string]int)
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			out[line]++
		}
	}
	return out
}

// diffOps classifies the operations from a's release to b's, the way the
// ingest does: through each artifact's DiffFacts.
func diffOps(a, b *ecosys.Artifact) []Op {
	return NewDiffFacts(a).Ops(NewDiffFacts(b))
}

// referenceDiffOps is the oracle of DiffFacts.Ops: it re-reads both
// artifacts, compares their MergedSource strings and counts dependencies
// in a map, the way the diff worked before the facts.
func referenceDiffOps(a, b *ecosys.Artifact) []Op {
	var ops []Op
	if a.Coord.Name != b.Coord.Name {
		ops = append(ops, OpName)
	} else if a.Coord.Version != b.Coord.Version {
		ops = append(ops, OpVersion)
	}
	if a.Description != b.Description {
		ops = append(ops, OpDescription)
	}
	count := make(map[string]int)
	for _, d := range ManifestDeps(a) {
		count[d]++
	}
	for _, d := range ManifestDeps(b) {
		count[d]--
	}
	for _, n := range count {
		if n != 0 {
			ops = append(ops, OpDependency)
			break
		}
	}
	if a.MergedSource() != b.MergedSource() {
		ops = append(ops, OpCode)
	}
	return ops
}

func TestChangedLines(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"a\nb\nc", "a\nb\nc", 0},
		{"a\nb\nc", "a\nX\nc", 1},
		{"a\nb", "a\nb\nc\nd", 1}, // two added lines ≈ 1 edit pair
		{"", "x", 1},
		{"a\na\nb", "a\nb\nb", 1}, // multiset: one a out, one b in
	}
	for _, tc := range cases {
		if got := ChangedLines(tc.a, tc.b); got != tc.want {
			t.Errorf("ChangedLines(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		fa := NewDiffFacts(sourceArtifact(tc.a))
		fb := NewDiffFacts(sourceArtifact(tc.b))
		if got := fa.ChangedLines(fb); got != tc.want {
			t.Errorf("DiffFacts.ChangedLines(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// sourceArtifact wraps one source file in a PyPI artifact.
func sourceArtifact(files ...string) *ecosys.Artifact {
	a := &ecosys.Artifact{Coord: testCoord(ecosys.PyPI)}
	for i, content := range files {
		a.Files = append(a.Files, ecosys.File{Path: fmt.Sprintf("f%d.py", i), Content: content})
	}
	return a
}

// TestDiffOpsRepeatedDependency pins the multiset comparison of manifest
// dependencies: a requirements.txt that repeats a line differs from one
// that lists two names, whichever release comes first.
func TestDiffOpsRepeatedDependency(t *testing.T) {
	withDeps := func(reqs string) *ecosys.Artifact {
		a := sourceArtifact("import os\n")
		a.Files = append(a.Files, ecosys.File{Path: "requirements.txt", Content: reqs})
		return a
	}
	xy, xx := withDeps("x\ny\n"), withDeps("x\nx\n")
	if !hasOp(diffOps(xy, xx), OpDependency) || !hasOp(diffOps(xx, xy), OpDependency) {
		t.Fatalf("[x y] vs [x x]: forward %v, backward %v; both must change dependencies",
			diffOps(xy, xx), diffOps(xx, xy))
	}
	if ops := diffOps(xy, withDeps("y\nx\n")); hasOp(ops, OpDependency) {
		t.Fatalf("reordered requirements diff as %v", ops)
	}
}

// TestDiffFactsSourceStream checks that source equality follows the merged
// stream, not the file split: the same bytes cut into different files are
// the same MergedSource.
func TestDiffFactsSourceStream(t *testing.T) {
	cases := []struct{ a, b []string }{
		{[]string{"a\nb"}, []string{"a", "b"}},
		{[]string{"a\n"}, []string{"a", ""}},
		{[]string{"ab"}, []string{"a", "b"}},
		{[]string{""}, nil},
		{[]string{"x"}, []string{"x"}},
		{[]string{"x", "y"}, []string{"x", "z"}},
		{nil, nil},
	}
	for _, tc := range cases {
		a, b := sourceArtifact(tc.a...), sourceArtifact(tc.b...)
		got, want := diffOps(a, b), referenceDiffOps(a, b)
		if !slices.Equal(got, want) {
			t.Errorf("%q vs %q: Ops %v, reference %v", tc.a, tc.b, got, want)
		}
	}
}

// TestDiffFactsMatchReference compares DiffFacts with the reference on
// every ordered pair of generated releases: code bases of every payload in
// every big-3 ecosystem, with changed names, versions, descriptions,
// dependency lists (repeats included) and IoCs.
func TestDiffFactsMatchReference(t *testing.T) {
	rng := xrand.New(11)
	var arts []*ecosys.Artifact
	for _, eco := range ecosys.Big3() {
		cb := NewCodeBase("cb", eco, PayloadEnvExfil, rng.Derive(eco.String()))
		alt := RandomIoC(rng.Derive("alt"))
		for i, opt := range []Options{
			{Description: "d"},
			{Description: "d", Dependencies: []string{"urllib"}},
			{Description: "e", Dependencies: []string{"urllib", "request"}},
			{Description: "e", Dependencies: []string{"request", "urllib"}},
			{Description: "e", Dependencies: []string{"urllib", "urllib"}},
			{Description: "d", IoCOverride: &alt},
		} {
			coord := ecosys.Coord{Ecosystem: eco, Name: fmt.Sprintf("p%d", i%2), Version: fmt.Sprintf("1.%d", i%3)}
			arts = append(arts, cb.Instantiate(coord, opt))
		}
	}
	for _, a := range arts {
		fa := NewDiffFacts(a)
		for _, b := range arts {
			fb := NewDiffFacts(b)
			if got, want := fa.Ops(fb), referenceDiffOps(a, b); !slices.Equal(got, want) {
				t.Fatalf("%v vs %v: Ops %v, reference %v", a.Coord, b.Coord, got, want)
			}
			if got, want := fa.ChangedLines(fb), ChangedLines(a.MergedSource(), b.MergedSource()); got != want {
				t.Fatalf("%v vs %v: ChangedLines %d, reference %d", a.Coord, b.Coord, got, want)
			}
		}
	}
}

func TestPayloadBehaviorsNonEmpty(t *testing.T) {
	for _, p := range AllPayloads() {
		if len(p.Behaviors()) == 0 {
			t.Fatalf("payload %d has no behaviours", p)
		}
	}
}

func TestOpStrings(t *testing.T) {
	want := []string{"CN", "CV", "CD", "CDep", "CC"}
	for i, op := range []Op{OpName, OpVersion, OpDescription, OpDependency, OpCode} {
		if op.String() != want[i] {
			t.Fatalf("op %d = %s, want %s", i, op, want[i])
		}
	}
}

func TestWalletPayloadHasObfuscationMarkers(t *testing.T) {
	rng := xrand.New(11)
	cb := NewCodeBase("cb", ecosys.PyPI, PayloadWalletReplace, rng)
	art := cb.Instantiate(testCoord(ecosys.PyPI), Options{})
	src := art.MergedSource()
	if !strings.Contains(src, "0x") {
		t.Fatal("wallet payload must embed a wallet address")
	}
	if !strings.Contains(src, "钱包") && !strings.Contains(src, "替换") {
		t.Fatal("wallet payload must carry Chinese-character obfuscation (Table XI row 1, PyPI)")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := NewCodeBase("cb", ecosys.NPM, PayloadBeaconC2, xrand.New(42))
	b := NewCodeBase("cb", ecosys.NPM, PayloadBeaconC2, xrand.New(42))
	artA := a.Instantiate(testCoord(ecosys.NPM), Options{})
	artB := b.Instantiate(testCoord(ecosys.NPM), Options{})
	if artA.Hash() != artB.Hash() {
		t.Fatal("same seed must produce identical artifacts")
	}
}

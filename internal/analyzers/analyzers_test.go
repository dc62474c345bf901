package analyzers

import (
	"strings"
	"testing"
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

func TestMaprangeFixture(t *testing.T)  { RunFixture(t, fixtureLoader(t), Maprange, "maprange") }
func TestNondetermFixture(t *testing.T) { RunFixture(t, fixtureLoader(t), Nondeterm, "nondeterm") }
func TestEpochsafeFixture(t *testing.T) { RunFixture(t, fixtureLoader(t), Epochsafe, "epochsafe") }
func TestLockguardFixture(t *testing.T) { RunFixture(t, fixtureLoader(t), Lockguard, "lockguard") }

// TestWaiverSyntaxFixture pins the directive contract: a reasonless waiver
// and a stale waiver are findings in their own right.
func TestWaiverSyntaxFixture(t *testing.T) {
	RunFixture(t, fixtureLoader(t), Nondeterm, "waiver")
}

func TestInDeterministicZone(t *testing.T) {
	const mod = "malgraph"
	cases := []struct {
		path string
		want bool
	}{
		{"malgraph/internal/core", true},
		{"malgraph/internal/core/sub", true},
		{"malgraph/internal/graph", true},
		{"malgraph/internal/textsim", true},
		{"malgraph/internal/analysis", true},
		{"malgraph/internal/stats", true},
		{"malgraph/internal/world", true},
		{"malgraph/internal/attacker", true},
		{"malgraph/internal/codegen", true},
		{"malgraph/internal/webworld", true},
		{"malgraph/internal/sources", true},
		{"malgraph/internal/reports", true},
		{"malgraph/internal/ecosys", true},
		{"malgraph/internal/xrand", true},
		{"malgraph/internal/registry", false}, // serves the world, computes nothing from it
		{"malgraph/internal/corelike", false}, // prefix of a zone name is not the zone
		{"malgraph/internal/wal", false},
		{"malgraph/internal/analyzers", false},
		{"malgraph", false},
		{"othermod/internal/core", false},
	}
	for _, c := range cases {
		if got := InDeterministicZone(mod, c.path); got != c.want {
			t.Errorf("InDeterministicZone(%q, %q) = %v, want %v", mod, c.path, got, c.want)
		}
	}
}

// TestAnalyzerMetadata keeps the suite's registration coherent: unique names,
// docs present, and every analyzer wired to a waiver kind.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Waiver == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if !ZoneOnly(Maprange) || !ZoneOnly(Nondeterm) {
		t.Error("maprange and nondeterm must be zone-scoped")
	}
	if ZoneOnly(Epochsafe) || ZoneOnly(Lockguard) {
		t.Error("epochsafe and lockguard must run module-wide")
	}
}

// TestLoaderLoadsModulePackage smoke-tests the source loader against a real
// module package with stdlib imports.
func TestLoaderLoadsModulePackage(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Load("malgraph/internal/graph")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if pkg.Types == nil || len(pkg.Files) == 0 {
		t.Fatal("loaded package has no type info or files")
	}
	if !strings.HasSuffix(pkg.Dir, "internal/graph") {
		t.Errorf("unexpected package dir %q", pkg.Dir)
	}
}

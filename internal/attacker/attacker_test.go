package attacker

import (
	"testing"
	"time"

	"malgraph/internal/codegen"
	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/xrand"
)

var start = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)

func newFixture() (*Simulator, *registry.Fleet) {
	fleet := registry.NewFleet()
	for _, eco := range ecosys.Big3() {
		fleet.AddRoot(registry.New(eco.String()+"-root", eco))
	}
	return NewSimulator(xrand.New(99), fleet), fleet
}

// render builds and publishes everything sim has queued.
func render(t *testing.T, sim *Simulator) {
	t.Helper()
	if err := sim.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarCampaignShape(t *testing.T) {
	sim, fleet := newFixture()
	c, err := sim.SimilarCampaign(SimilarConfig{
		Eco:      ecosys.NPM,
		Size:     20,
		Start:    start,
		Active:   10 * 24 * time.Hour,
		Rates:    PaperOpRates(),
		Takedown: TakedownModel{MeanDays: 2},
		Payload:  codegen.PayloadBeaconC2,
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	if len(c.Packages) != 20 {
		t.Fatalf("size = %d", len(c.Packages))
	}
	if got := c.ActivePeriod(); got != 10*24*time.Hour {
		t.Fatalf("active period = %v, want 10d", got)
	}
	root, _ := fleet.Root(ecosys.NPM)
	if root.Count() != 20 {
		t.Fatalf("registry has %d packages", root.Count())
	}
	// All packages share the campaign's code base.
	for _, p := range c.Packages {
		if p.CodeBaseID != c.Packages[0].CodeBaseID {
			t.Fatal("similar campaign must reuse one code base")
		}
		if p.RemovedAt.IsZero() || !p.RemovedAt.After(p.ReleasedAt) {
			t.Fatal("every malicious package must eventually be removed after release")
		}
	}
}

func TestSimilarCampaignCoordinatesUnique(t *testing.T) {
	sim, _ := newFixture()
	c, err := sim.SimilarCampaign(SimilarConfig{
		Eco: ecosys.PyPI, Size: 50, Start: start, Active: 5 * 24 * time.Hour,
		Rates: PaperOpRates(), Takedown: TakedownModel{MeanDays: 1},
		Payload: codegen.PayloadEnvExfil,
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	seen := map[string]bool{}
	for _, p := range c.Packages {
		key := p.Artifact.Coord.Key()
		if seen[key] {
			t.Fatalf("duplicate coordinate %s", key)
		}
		seen[key] = true
	}
}

func TestSimilarCampaignOpMix(t *testing.T) {
	sim, _ := newFixture()
	c, err := sim.SimilarCampaign(SimilarConfig{
		Eco: ecosys.NPM, Size: 400, Start: start, Active: 40 * 24 * time.Hour,
		Rates: PaperOpRates(), Takedown: TakedownModel{MeanDays: 2},
		Payload: codegen.PayloadCredentialTheft,
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	var cn, cv, cc int
	for i := 1; i < len(c.Packages); i++ {
		ops := codegen.NewDiffFacts(c.Packages[i-1].Artifact).Ops(codegen.NewDiffFacts(c.Packages[i].Artifact))
		for _, op := range ops {
			switch op {
			case codegen.OpName:
				cn++
			case codegen.OpVersion:
				cv++
			case codegen.OpCode:
				cc++
			}
		}
	}
	total := float64(cn + cv)
	if total == 0 {
		t.Fatal("no name/version ops observed")
	}
	cnFrac := float64(cn) / total
	if cnFrac < 0.8 || cnFrac > 0.96 {
		t.Fatalf("CN fraction %v far from Fig. 9's 0.8865", cnFrac)
	}
	ccFrac := float64(cc) / float64(len(c.Packages)-1)
	if ccFrac < 0.45 || ccFrac > 0.75 {
		t.Fatalf("CC fraction %v far from Fig. 9's 0.5934", ccFrac)
	}
}

func TestDependentHiddenCampaign(t *testing.T) {
	sim, fleet := newFixture()
	c, err := sim.DependentHiddenCampaign(DepHiddenConfig{
		Eco:    ecosys.PyPI,
		Specs:  []DepSpec{{Name: "urllib", Fronts: 10}, {Name: "request", Fronts: 5}},
		Start:  start,
		Active: 8 * 24 * time.Hour,
		Takedown: TakedownModel{
			MeanDays: 2,
		},
		Bridges: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	// 2 cores + 15 fronts + 2 chain bridges (one core pair) + 2 extras.
	if len(c.Packages) != 2+10+5+2+2 {
		t.Fatalf("package count = %d", len(c.Packages))
	}
	if len(c.DepCores) != 2 {
		t.Fatalf("dep cores = %v", c.DepCores)
	}
	root, _ := fleet.Root(ecosys.PyPI)
	if _, ok := root.Release(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "urllib", Version: c.Packages[0].Artifact.Coord.Version}); !ok {
		t.Fatal("urllib core not published")
	}

	// Every front must reference at least one core via manifest or source.
	cores := map[string]bool{"urllib": true, "request": true}
	for _, p := range c.Packages {
		if p.IsDepCore {
			continue
		}
		found := false
		for _, d := range codegen.ManifestDeps(p.Artifact) {
			if cores[d] {
				found = true
			}
		}
		if !found {
			src := p.Artifact.MergedSource()
			for core := range cores {
				if containsImport(src, core) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("front %s has no reference to any core", p.Artifact.Coord)
		}
	}
}

func containsImport(src, dep string) bool {
	for _, needle := range []string{"import " + dep, "require('" + dep + "')", "require '" + dep + "'"} {
		if contains(src, needle) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDependentHiddenNameClash(t *testing.T) {
	sim, _ := newFixture()
	_, err := sim.DependentHiddenCampaign(DepHiddenConfig{
		Eco: ecosys.PyPI, Specs: []DepSpec{{Name: "urllib", Fronts: 1}},
		Start: start, Active: 24 * time.Hour, Takedown: TakedownModel{MeanDays: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	if _, err := sim.DependentHiddenCampaign(DepHiddenConfig{
		Eco: ecosys.PyPI, Specs: []DepSpec{{Name: "urllib", Fronts: 1}},
		Start: start.AddDate(0, 1, 0), Active: 24 * time.Hour, Takedown: TakedownModel{MeanDays: 1},
	}); err == nil {
		t.Fatal("reusing a dependency core name must fail")
	}
}

func TestFloodCampaign(t *testing.T) {
	sim, fleet := newFixture()
	c, err := sim.FloodCampaign(FloodConfig{
		Eco: ecosys.PyPI, Size: 300, Start: time.Date(2023, 2, 10, 0, 0, 0, 0, time.UTC),
		Window:   48 * time.Hour,
		Takedown: TakedownModel{MeanDays: 0.1, MinHours: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	if len(c.Packages) != 300 {
		t.Fatalf("flood size = %d", len(c.Packages))
	}
	if c.ActivePeriod() > 48*time.Hour {
		t.Fatalf("flood window exceeded: %v", c.ActivePeriod())
	}
	for _, p := range c.Packages {
		if p.CodeBaseID != c.Packages[0].CodeBaseID {
			t.Fatal("flood must reuse one code base")
		}
	}
	root, _ := fleet.Root(ecosys.PyPI)
	if root.Count() != 300 {
		t.Fatalf("registry count = %d", root.Count())
	}
}

func TestSingleton(t *testing.T) {
	sim, _ := newFixture()
	c, err := sim.Singleton(ecosys.RubyGems, start, TakedownModel{MeanDays: 5})
	if err != nil {
		t.Fatal(err)
	}
	render(t, sim)
	if len(c.Packages) != 1 || c.Kind != KindSingleton {
		t.Fatalf("singleton shape wrong: %+v", c)
	}
	if c.ActivePeriod() != 0 {
		t.Fatalf("singleton active period = %v", c.ActivePeriod())
	}
}

func TestCampaignKindString(t *testing.T) {
	if KindSimilarCode.String() != "similar-code" || KindFlood.String() != "flood" {
		t.Fatal("kind names wrong")
	}
}

func TestSpreadTimesEndpoints(t *testing.T) {
	rng := xrand.New(5)
	times := spreadTimes(rng, start, 10*24*time.Hour, 7)
	if !times[0].Equal(start) {
		t.Fatalf("first = %v", times[0])
	}
	if !times[len(times)-1].Equal(start.Add(10 * 24 * time.Hour)) {
		t.Fatalf("last = %v", times[len(times)-1])
	}
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			t.Fatal("times not sorted")
		}
	}
}

func TestSimilarCampaignInvalidSize(t *testing.T) {
	sim, _ := newFixture()
	if _, err := sim.SimilarCampaign(SimilarConfig{Eco: ecosys.NPM, Size: 0}); err == nil {
		t.Fatal("zero size must fail")
	}
}

func TestDeterministicCampaigns(t *testing.T) {
	simA, _ := newFixture()
	simB, _ := newFixture()
	cfg := SimilarConfig{
		Eco: ecosys.NPM, Size: 10, Start: start, Active: 3 * 24 * time.Hour,
		Rates: PaperOpRates(), Takedown: TakedownModel{MeanDays: 2},
		Payload: codegen.PayloadEnvExfil,
	}
	a, err := simA.SimilarCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	render(t, simA)
	b, err := simB.SimilarCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	render(t, simB)
	for i := range a.Packages {
		if a.Packages[i].Artifact.Hash() != b.Packages[i].Artifact.Hash() {
			t.Fatalf("non-deterministic artifact at %d", i)
		}
	}
}

// ActivePeriod returns t_last − t_first over the campaign's releases (§V-B):
// the fixture check that a campaign's releases span the window it was
// given.
func (c *Campaign) ActivePeriod() time.Duration {
	if len(c.Packages) == 0 {
		return 0
	}
	first, last := c.Packages[0].ReleasedAt, c.Packages[0].ReleasedAt
	for _, p := range c.Packages[1:] {
		if p.ReleasedAt.Before(first) {
			first = p.ReleasedAt
		}
		if p.ReleasedAt.After(last) {
			last = p.ReleasedAt
		}
	}
	return last.Sub(first)
}

// PaperOpRates returns Fig. 9's measured distribution, the test campaigns'
// operation rates.
func PaperOpRates() OpRates {
	return OpRates{Rename: 0.8865, Description: 0.0797, Dependency: 0.0176, Code: 0.5934}
}

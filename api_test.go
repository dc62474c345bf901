package malgraph

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"malgraph/internal/attacker"
)

// GroundTruth exposes the simulated world's campaign ledger to the
// calibration tests.
func (p *Pipeline) GroundTruth() []*attacker.Campaign { return p.World.Campaigns }

// one shared small pipeline per test binary.
var sharedResults *Results

func runSmall(t *testing.T) *Results {
	t.Helper()
	if sharedResults != nil {
		return sharedResults
	}
	// Scale 0.10 keeps enough NPM code-base families (~16) that random
	// training sampling genuinely misses some — the Table X effect needs
	// family diversity to exist in the first place.
	res, err := Run(Config{Scale: 0.10, Detection: true, DetectionIterations: 10})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sharedResults = res
	return res
}

func TestRunProducesEveryArtifact(t *testing.T) {
	r := runSmall(t)
	if r.TotalPackages == 0 || r.Available == 0 || r.Missing == 0 {
		t.Fatalf("corpus counts: %+v", r)
	}
	if len(r.SourceSizes) != 10 {
		t.Fatalf("Table I rows = %d", len(r.SourceSizes))
	}
	if len(r.Overlap) != 10 || len(r.OverlapNames) != 10 {
		t.Fatalf("Table IV shape wrong")
	}
	if len(r.MissingRates) != 10 {
		t.Fatalf("Table V rows = %d", len(r.MissingRates))
	}
	if len(r.OccurrenceCDF) != 3 {
		t.Fatalf("Fig 6 ecosystems = %d", len(r.OccurrenceCDF))
	}
	if len(r.Timeline) < 8 {
		t.Fatalf("Fig 7 buckets = %d", len(r.Timeline))
	}
	if r.MissingCauses.ShortPersistence == 0 {
		t.Fatal("Fig 8 causes empty")
	}
	if len(r.SimilarSubgraphs) == 0 || len(r.DependencySubgraphs) == 0 || len(r.CoexistSubgraphs) == 0 {
		t.Fatal("subgraph tables empty")
	}
	if r.SimilarOps.Transitions == 0 || r.CoexistOps.Transitions == 0 {
		t.Fatal("operation distributions empty")
	}
	if r.SimilarActive.Groups == 0 || r.DependencyActive.Groups == 0 || r.CoexistActive.Groups == 0 {
		t.Fatal("active-period stats empty")
	}
	if len(r.DependencyTargets) == 0 || r.DepCores == 0 || r.DepFronts == 0 {
		t.Fatal("Table VIII empty")
	}
	if r.IoCs.UniqueURLs == 0 || len(r.TopDomains) == 0 {
		t.Fatal("Fig 14 empty")
	}
	if len(r.Behaviors) == 0 {
		t.Fatal("Table XI empty")
	}
	if len(r.Detection) != 4 {
		t.Fatalf("Table X rows = %d", len(r.Detection))
	}
	if r.Validation.VerifiedRate != 1.0 {
		t.Fatalf("validation verified rate = %v (paper: 100%%)", r.Validation.VerifiedRate)
	}
}

func TestPaperFindingsHold(t *testing.T) {
	r := runSmall(t)

	// Finding 1: low overlap, high missing rate.
	if r.TotalMR < 0.2 || r.TotalMR > 0.6 {
		t.Errorf("total missing rate %v out of paper neighbourhood", r.TotalMR)
	}

	// Finding 2: low diversity — far fewer groups than packages; CN is the
	// dominant operation.
	var simGroups, simPkgs int
	for _, s := range r.SimilarSubgraphs {
		simGroups += s.SubgraphNum
		simPkgs += s.PkgNum
	}
	if simGroups == 0 || simPkgs < simGroups*2 {
		t.Errorf("diversity shape wrong: %d groups / %d pkgs", simGroups, simPkgs)
	}
	if r.SimilarOps.CN < r.SimilarOps.CV {
		t.Errorf("CN (%v) must dominate CV (%v)", r.SimilarOps.CN, r.SimilarOps.CV)
	}

	// Finding 3: dependency-hidden campaigns live shorter than similar-code
	// campaigns.
	if r.DependencyActive.MeanDays >= r.SimilarActive.MeanDays {
		t.Errorf("dep mean %.1fd should be below similar mean %.1fd",
			r.DependencyActive.MeanDays, r.SimilarActive.MeanDays)
	}

	// Finding 4: reports disclose context — IoC ordering URLs > IPs > PS.
	if !(r.IoCs.UniqueURLs > r.IoCs.UniqueIPs && r.IoCs.UniqueIPs > r.IoCs.PowerShell) {
		t.Errorf("IoC ordering wrong: %+v", r.IoCs)
	}

	// §VI-A: diversity-aware training must lift average recall (paper ≈
	// +10%). At the tiny test scale individual models can saturate and tie,
	// so we require the average to not regress and at least one model to
	// strictly improve.
	var withSum, withoutSum float64
	strictlyBetter := false
	for _, d := range r.Detection {
		withSum += d.RecallWith
		withoutSum += d.RecallWithout
		if d.RecallWith > d.RecallWithout {
			strictlyBetter = true
		}
	}
	if withSum < withoutSum || !strictlyBetter {
		t.Errorf("diversity-aware recall %.3f must beat random sampling %.3f (strict improvement: %v)",
			withSum/4, withoutSum/4, strictlyBetter)
	}
}

func TestRenderMentionsEveryArtifact(t *testing.T) {
	r := runSmall(t)
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table IV", "Table V", "Fig 6", "Fig 7", "Fig 8",
		"Table VI", "Fig 9", "Fig 10", "Table VII", "Table VIII", "Fig 11",
		"Table IX", "Fig 12", "Fig 13", "Fig 14", "Table X", "Table XI",
		"§IV-A", "bananasquad.ru",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestBuildPipelineExposesInternals(t *testing.T) {
	p, err := BuildPipeline(context.Background(), Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if p.World == nil || p.Dataset == nil || p.Graph == nil {
		t.Fatal("pipeline stages missing")
	}
	if len(p.GroundTruth()) == 0 {
		t.Fatal("ground truth empty")
	}
	if len(p.NPMClusters()) == 0 {
		t.Fatal("no NPM clusters")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed == 0 || c.Scale != 0.05 || c.MinBehaviorGroup < 3 {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{Detection: true}.withDefaults()
	if c2.DetectionIterations != 50 {
		t.Fatalf("detection iterations default = %d", c2.DetectionIterations)
	}
}

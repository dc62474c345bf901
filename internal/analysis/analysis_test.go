package analysis

import (
	"context"
	"testing"

	"malgraph/internal/attacker"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/world"
)

// pipeline holds the full end-to-end state for the small world, built once.
type pipeline struct {
	world   *world.World
	dataset *collect.Result
	reports []*reports.Report
	mg      *core.MalGraph
}

var built *pipeline

// buildPipeline runs world→collect→crawl→parse→MALGRAPH at small scale.
func buildPipeline(t *testing.T) *pipeline {
	t.Helper()
	if built != nil {
		return built
	}
	w, err := world.Build(world.SmallScale())
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	ds, err := collect.Run(w.Sources, w.Fleet, w.Config.CollectAt)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	cr := crawler.New(w.Web, w.Web, crawler.Config{MaxPages: 100000})
	res := cr.Crawl(context.Background(), w.SeedURLs)
	reportCorpus := reports.FromPages(res.Relevant, w.Config.CollectAt)
	if len(reportCorpus) == 0 {
		t.Fatal("crawler found no reports")
	}
	eng := core.NewEngine(core.DefaultConfig())
	_, err = eng.Ingest(core.Batch{Entries: ds.Entries, Stats: ds.BatchOf(ds.Entries).Stats, Reports: reportCorpus, At: ds.CollectedAt})
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	built = &pipeline{world: w, dataset: ds, reports: reportCorpus, mg: eng.Graph()}
	return built
}

func TestCrawlerRecoversReportCorpus(t *testing.T) {
	p := buildPipeline(t)
	// The crawler should find nearly every generated report page.
	if got, want := len(p.reports), len(p.world.Reports); got < want*9/10 {
		t.Fatalf("crawled %d reports, world has %d", got, want)
	}
}

func TestTable1SourceSizes(t *testing.T) {
	p := buildPipeline(t)
	rows := SourceSizes(p.dataset)
	if len(rows) != 10 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	for _, row := range rows {
		info, _ := sources.InfoFor(row.Source)
		if info.CarriesArtifacts && row.Unavailable > 0 {
			t.Errorf("%s: artifact-carrying source has %d unavailable", info.Name, row.Unavailable)
		}
	}
}

func TestTable4OverlapShape(t *testing.T) {
	p := buildPipeline(t)
	m := Overlap(p.dataset)
	// Matrix is symmetric with non-negative entries.
	for i := range m.Matrix {
		for j := range m.Matrix {
			if m.Matrix[i][j] != m.Matrix[j][i] {
				t.Fatalf("overlap not symmetric at %d,%d", i, j)
			}
		}
	}
	// Backstabber–MalPyPI is the dominant academia overlap (paper: 2,897).
	bkMd := m.At(sources.Backstabber, sources.MalPyPI)
	if bkMd == 0 {
		t.Fatal("B.K–M.D overlap missing")
	}
	for _, pair := range [][2]sources.ID{
		{sources.GitHubAdvisory, sources.Snyk},
		{sources.Socket, sources.Phylum},
	} {
		if got := m.At(pair[0], pair[1]); got > bkMd {
			t.Errorf("industry pair %v overlap %d exceeds academia aggregation %d", pair, got, bkMd)
		}
	}
	// Diagonal equals per-source totals.
	for _, info := range sources.Catalog() {
		if got, want := m.At(info.ID, info.ID), p.dataset.PerSource[info.ID].Total; got != want {
			t.Errorf("%s diagonal %d != total %d", info.Name, got, want)
		}
	}
}

func TestFigure6OccurrenceCDF(t *testing.T) {
	p := buildPipeline(t)
	cdfs := OccurrenceCDF(p.dataset)
	for _, eco := range ecosys.Big3() {
		c := cdfs[eco]
		if c.Len() == 0 {
			t.Fatalf("%s: empty occurrence CDF", eco)
		}
		if c.Quantile(1) > 4 {
			t.Fatalf("%s: occurrence beyond Fig. 6 max of 4", eco)
		}
	}
	// Most NPM packages appear exactly once (paper: 80–90%).
	if frac := cdfs[ecosys.NPM].At(1); frac < 0.6 {
		t.Errorf("NPM single-occurrence fraction %v too low", frac)
	}
}

func TestTable5MissingRates(t *testing.T) {
	p := buildPipeline(t)
	rows, total := MissingRates(p.dataset)
	if total < 0.2 || total > 0.6 {
		t.Fatalf("total MR %v far from paper's 0.3927", total)
	}
	byID := make(map[sources.ID]MissingRateRow)
	for _, r := range rows {
		byID[r.Source] = r
	}
	// Orderings from Table V: academia ≈ 0; Socket worst.
	if byID[sources.Backstabber].LocalMR != 0 {
		t.Errorf("Backstabber MR %v", byID[sources.Backstabber].LocalMR)
	}
	if byID[sources.Socket].LocalMR < byID[sources.Tianwen].LocalMR {
		t.Errorf("Socket (%v) should exceed Tianwen (%v)",
			byID[sources.Socket].LocalMR, byID[sources.Tianwen].LocalMR)
	}
	// Global ≤ local everywhere.
	for _, r := range rows {
		if r.GlobalMR > r.LocalMR+1e-9 {
			t.Errorf("%v: global %v > local %v", r.Source, r.GlobalMR, r.LocalMR)
		}
	}
}

func TestFigure7Timeline(t *testing.T) {
	p := buildPipeline(t)
	buckets := Timeline(p.dataset)
	if len(buckets) < 8 {
		t.Fatalf("timeline years = %d", len(buckets))
	}
	var all, missing int
	for _, b := range buckets {
		all += b.All
		missing += b.Missing
		if b.Missing > b.All {
			t.Fatalf("bucket %d: missing > all", b.Year)
		}
	}
	if all != len(p.dataset.Entries) {
		t.Fatalf("timeline total %d != entries %d", all, len(p.dataset.Entries))
	}
	// Feb-2023 flood peak visible in the monthly view.
	monthly := MonthlyTimeline(p.dataset, 2023)
	feb := monthly[1]
	for i, b := range monthly {
		if i != 1 && b.Missing > feb.Missing {
			t.Fatalf("Feb 2023 must be the missing peak, but month %d has %d > %d", i+1, b.Missing, feb.Missing)
		}
	}
}

func TestFigure8MissingCauses(t *testing.T) {
	p := buildPipeline(t)
	causes := ClassifyMissing(p.dataset, p.world.Fleet)
	total := causes.EarlyRelease + causes.ShortPersistence + causes.Other
	if total != len(p.dataset.MissingEntries()) {
		t.Fatalf("cause counts %d != missing %d", total, len(p.dataset.MissingEntries()))
	}
	if causes.ShortPersistence == 0 || causes.EarlyRelease == 0 {
		t.Fatalf("both Fig. 8 causes must occur: %+v", causes)
	}
	// Short persistence dominates (flood + ultra-short singletons).
	if causes.ShortPersistence < causes.EarlyRelease {
		t.Errorf("expected short persistence to dominate: %+v", causes)
	}
}

func TestTable6SimilarSubgraphs(t *testing.T) {
	p := buildPipeline(t)
	rows := SubgraphStatsFor(p.mg, graph.Similar)
	byEco := map[ecosys.Ecosystem]SubgraphStats{}
	for _, r := range rows {
		byEco[r.Eco] = r
	}
	npm, pypi := byEco[ecosys.NPM], byEco[ecosys.PyPI]
	if npm.SubgraphNum == 0 || pypi.SubgraphNum == 0 {
		t.Fatalf("similar subgraphs missing: %+v", rows)
	}
	// PyPI has more subgraphs than NPM; NPM's average size exceeds
	// RubyGems' (paper: 19.07 vs 2.24).
	if pypi.SubgraphNum < npm.SubgraphNum {
		t.Errorf("PyPI groups %d < NPM %d", pypi.SubgraphNum, npm.SubgraphNum)
	}
	rg := byEco[ecosys.RubyGems]
	if rg.SubgraphNum > 0 && rg.AvgSize > npm.AvgSize {
		t.Errorf("RubyGems avg %v should be below NPM %v", rg.AvgSize, npm.AvgSize)
	}
	// Largest groups dwarf the average (827/829 in the paper).
	if npm.LargestSize < 3*int(npm.AvgSize) {
		t.Errorf("NPM largest %d vs avg %v lacks heavy tail", npm.LargestSize, npm.AvgSize)
	}
}

func TestFigure9SimilarOperations(t *testing.T) {
	p := buildPipeline(t)
	dist := Operations(p.mg, graph.Similar)
	if dist.Transitions == 0 {
		t.Fatal("no transitions")
	}
	if dist.CN < 0.75 || dist.CN > 0.97 {
		t.Errorf("CN %v far from paper's 0.8865", dist.CN)
	}
	if dist.CV < 0.03 || dist.CV > 0.25 {
		t.Errorf("CV %v far from paper's 0.1135", dist.CV)
	}
	if dist.CC < 0.3 || dist.CC > 0.8 {
		t.Errorf("CC %v far from paper's 0.5934", dist.CC)
	}
	if dist.CDep > dist.CD {
		t.Errorf("CDep %v should be rarest (paper: 1.76%%)", dist.CDep)
	}
	// ~1-line code changes (paper: 0.88 average).
	if dist.AvgChangedLines <= 0 || dist.AvgChangedLines > 5 {
		t.Errorf("avg changed lines %v far from paper's 0.88", dist.AvgChangedLines)
	}
}

func TestFigure10SimilarActivePeriods(t *testing.T) {
	p := buildPipeline(t)
	st := ActivePeriods(p.mg, graph.Similar)
	if st.CDF.Len() == 0 {
		t.Fatal("no similar subgraph periods")
	}
	// 80% under ~15 days.
	if frac := st.CDF.At(15); frac < 0.6 {
		t.Errorf("P(active<=15d) = %v, paper ~0.8", frac)
	}
	if st.Summary.Mean < 5 {
		t.Errorf("mean active %v days too small (paper 45.16)", st.Summary.Mean)
	}
}

func TestTable7And8Dependencies(t *testing.T) {
	p := buildPipeline(t)
	rows := SubgraphStatsFor(p.mg, graph.Dependency)
	byEco := map[ecosys.Ecosystem]SubgraphStats{}
	for _, r := range rows {
		byEco[r.Eco] = r
	}
	if byEco[ecosys.PyPI].LargestSize <= byEco[ecosys.RubyGems].LargestSize {
		t.Errorf("PyPI dep subgraph should dominate: %+v", rows)
	}
	targets := TopDependencyTargets(p.mg, 2)
	if len(targets) == 0 {
		t.Fatal("no dependency targets")
	}
	// urllib must top the PyPI ranking (Table VIII).
	var pypiTop *DepTarget
	for i := range targets {
		if targets[i].Eco == ecosys.PyPI {
			pypiTop = &targets[i]
			break
		}
	}
	if pypiTop == nil || pypiTop.Name != "urllib" {
		t.Errorf("PyPI top dependency = %+v, want urllib", pypiTop)
	}
	cores, fronts := DependencyReuse(p.mg, 2)
	if cores == 0 || fronts <= cores {
		t.Errorf("dependency reuse cores=%d fronts=%d", cores, fronts)
	}
}

func TestFigure11DependencyActiveShorter(t *testing.T) {
	p := buildPipeline(t)
	dep := ActivePeriods(p.mg, graph.Dependency)
	sim := ActivePeriods(p.mg, graph.Similar)
	if dep.CDF.Len() == 0 {
		t.Fatal("no dependency subgraph periods")
	}
	// Finding 3: dependency-hidden campaigns live shorter than similar-code
	// campaigns (10.5 vs 45.16 days mean).
	if dep.Summary.Mean >= sim.Summary.Mean {
		t.Errorf("dep mean %v should be below similar mean %v", dep.Summary.Mean, sim.Summary.Mean)
	}
}

func TestTable9CoexistingSubgraphs(t *testing.T) {
	p := buildPipeline(t)
	rows := SubgraphStatsFor(p.mg, graph.Coexisting)
	byEco := map[ecosys.Ecosystem]SubgraphStats{}
	for _, r := range rows {
		byEco[r.Eco] = r
	}
	pypi := byEco[ecosys.PyPI]
	npm := byEco[ecosys.NPM]
	if pypi.SubgraphNum == 0 || npm.SubgraphNum == 0 {
		t.Fatalf("coexisting subgraphs missing: %+v", rows)
	}
	// PyPI co-existing groups are the largest on average (the flood report
	// chain; paper: 181.23 vs 94.24).
	if pypi.AvgSize <= npm.AvgSize/2 {
		t.Errorf("PyPI avg %v vs NPM %v: flood should dominate", pypi.AvgSize, npm.AvgSize)
	}
}

func TestFigure12CoexistOperations(t *testing.T) {
	p := buildPipeline(t)
	dist := Operations(p.mg, graph.Coexisting)
	if dist.Transitions == 0 {
		t.Fatal("no coexisting transitions")
	}
	// CN dominates even harder than Fig. 9 (paper: 94.83%): the flood's
	// fresh-name-per-package pattern pushes it up.
	if dist.CN < 0.8 {
		t.Errorf("coexist CN %v, paper 0.9483", dist.CN)
	}
}

func TestFigure13CoexistActivePeriods(t *testing.T) {
	p := buildPipeline(t)
	st := ActivePeriods(p.mg, graph.Coexisting)
	if st.CDF.Len() == 0 {
		t.Fatal("no coexisting periods")
	}
	// ~20% of reported attacks start and end almost immediately (flood-like).
	if frac := st.CDF.At(3); frac < 0.05 {
		t.Errorf("P(active<=3d) = %v, expected short-lived mass", frac)
	}
}

func TestFigure14IoCs(t *testing.T) {
	p := buildPipeline(t)
	summary := IoCs(p.reports, 10)
	if summary.UniqueURLs == 0 || summary.UniqueIPs == 0 {
		t.Fatalf("IoCs empty: %+v", summary)
	}
	if len(summary.TopDomains) == 0 {
		t.Fatal("no top domains")
	}
	// bananasquad.ru is the #1 domain (Fig. 14: 453).
	if summary.TopDomains[0].Domain != "bananasquad.ru" {
		t.Errorf("top domain = %s, want bananasquad.ru", summary.TopDomains[0].Domain)
	}
	// Monotone non-increasing counts.
	for i := 1; i < len(summary.TopDomains); i++ {
		if summary.TopDomains[i].Count > summary.TopDomains[i-1].Count {
			t.Fatal("top domains not sorted")
		}
	}
	// URLs dominate IPs dominate PowerShell (1,449 / 234 / 4).
	if !(summary.UniqueURLs > summary.UniqueIPs && summary.UniqueIPs > summary.PowerShell) {
		t.Errorf("IoC ordering wrong: %+v", summary)
	}
	// The hot-IP recurrence (§V-D: same IP in up to 23 reports) is a
	// paper-scale property; at 5% scale only a handful of hot draws occur,
	// so just require the mechanism to exist.
	if summary.MaxSameIPReports < 1 {
		t.Errorf("hot C2 IPs absent from report corpus: %+v", summary.MaxSameIPReports)
	}
}

func TestSimilarGroupsMatchGroundTruthCampaigns(t *testing.T) {
	p := buildPipeline(t)
	// Every multi-member similar subgraph should be dominated by one
	// ground-truth campaign (clustering homogeneity).
	subs := p.mg.PackageSubgraphs(graph.Similar, 2)
	checked := 0
	for _, members := range subs {
		camps := map[string]int{}
		for _, id := range members {
			e, ok := p.mg.EntryByNodeID(id)
			if !ok {
				continue
			}
			rec, ok := p.world.Record(e.Coord)
			if !ok {
				continue
			}
			camps[rec.CampaignID]++
		}
		best := 0
		for _, n := range camps {
			if n > best {
				best = n
			}
		}
		if float64(best) < 0.9*float64(len(members)) {
			t.Errorf("similar subgraph of %d mixes campaigns: %v", len(members), camps)
		}
		checked++
		if checked >= 30 {
			break
		}
	}
	_ = attacker.KindSimilarCode
}

package malgraph

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps IDs to benches). Each benchmark times the
// analysis stage that produces its artifact and reports shape metrics via
// b.ReportMetric so `go test -bench` output doubles as a reproduction
// scorecard.
//
// The shared pipeline is built once per scale. Default scale is 0.05
// (≈1.2k packages, seconds); set MALGRAPH_BENCH_SCALE=1.0 to regenerate at
// paper scale.

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"

	"malgraph/internal/analysis"
	"malgraph/internal/behavior"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/detect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/xrand"
)

var (
	benchOnce sync.Once
	benchPipe *Pipeline
	benchErr  error
)

func benchScale() float64 {
	if raw := os.Getenv("MALGRAPH_BENCH_SCALE"); raw != "" {
		if v, err := strconv.ParseFloat(raw, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

func pipelineForBench(b *testing.B) *Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe, benchErr = BuildPipeline(context.Background(), Config{Scale: benchScale()})
	})
	if benchErr != nil {
		b.Fatalf("build pipeline: %v", benchErr)
	}
	return benchPipe
}

// ingestOneShot ingests a whole corpus into a fresh engine as one batch —
// the one-shot build of MALGRAPH — and returns its graph.
func ingestOneShot(tb testing.TB, ds *collect.Result, reportCorpus []*reports.Report) *core.MalGraph {
	tb.Helper()
	eng := core.NewEngine(core.DefaultConfig())
	_, err := eng.Ingest(core.Batch{Entries: ds.Entries, Stats: ds.BatchOf(ds.Entries).Stats, Reports: reportCorpus, At: ds.CollectedAt})
	if err != nil {
		tb.Fatal(err)
	}
	return eng.Graph()
}

// BenchmarkPipeline_EndToEnd regenerates the whole corpus + graph, the cost
// envelope for everything below.
func BenchmarkPipeline_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := BuildPipeline(context.Background(), Config{Scale: benchScale()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(p.Dataset.Entries)), "packages")
		b.ReportMetric(float64(p.Graph.G.EdgeCount()), "edges")
	}
}

// BenchmarkPipeline_Startup times what every serve start pays before it
// can adopt or ingest anything: the world build, the collection, the report
// crawl and parse, and the 200-batch feed partition.
func BenchmarkPipeline_Startup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := NewStreamingPipeline(context.Background(), Config{Scale: benchScale()}, 200)
		if err != nil {
			b.Fatal(err)
		}
		ds, corpus := p.Source()
		b.ReportMetric(float64(len(ds.Entries)), "packages")
		b.ReportMetric(float64(len(corpus)), "reports")
	}
}

// --- T1: Table I — source and size of initial malicious packages. ---
func BenchmarkTable1_SourceSizes(b *testing.B) {
	p := pipelineForBench(b)
	var rows []analysis.SourceSizeRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.SourceSizes(p.Dataset)
	}
	b.ReportMetric(float64(len(rows)), "sources")
	avail := 0
	for _, r := range rows {
		avail += r.Available
	}
	b.ReportMetric(float64(avail), "available")
}

// --- T4: Table IV — overlap matrix. ---
func BenchmarkTable4_OverlapMatrix(b *testing.B) {
	p := pipelineForBench(b)
	var m analysis.OverlapMatrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = analysis.Overlap(p.Dataset)
	}
	b.ReportMetric(float64(m.At(sources.Backstabber, sources.MalPyPI)), "bk_mdp_overlap")
}

// --- T5: Table V — missing rates. ---
func BenchmarkTable5_MissingRates(b *testing.B) {
	p := pipelineForBench(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, total = analysis.MissingRates(p.Dataset)
	}
	b.ReportMetric(total*100, "total_mr_pct")
}

// --- F6: Fig. 6 — occurrence CDF. ---
func BenchmarkFigure6_OccurrenceCDF(b *testing.B) {
	p := pipelineForBench(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs := analysis.OccurrenceCDF(p.Dataset)
		frac = cdfs[ecosys.NPM].At(1)
	}
	b.ReportMetric(frac*100, "npm_single_occ_pct")
}

// --- F7: Fig. 7 — release timeline. ---
func BenchmarkFigure7_Timeline(b *testing.B) {
	p := pipelineForBench(b)
	var buckets []analysis.TimelineBucket
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets = analysis.Timeline(p.Dataset)
	}
	peak := 0
	for _, bk := range buckets {
		if bk.Missing > peak {
			peak = bk.Missing
		}
	}
	b.ReportMetric(float64(len(buckets)), "years")
	b.ReportMetric(float64(peak), "peak_missing")
}

// --- F8: Fig. 8 — causes of unavailability. ---
func BenchmarkFigure8_MissingCauses(b *testing.B) {
	p := pipelineForBench(b)
	var causes analysis.MissingCauses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		causes = analysis.ClassifyMissing(p.Dataset, p.World.Fleet)
	}
	b.ReportMetric(float64(causes.EarlyRelease), "early_release")
	b.ReportMetric(float64(causes.ShortPersistence), "short_persistence")
}

// --- T6: Table VI — similar subgraphs (includes the clustering cost). ---
func BenchmarkTable6_SimilarSubgraphs(b *testing.B) {
	p := pipelineForBench(b)
	var rows []analysis.SubgraphStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.SubgraphStatsFor(p.Graph, graph.Similar)
	}
	for _, r := range rows {
		switch r.Eco {
		case ecosys.NPM:
			b.ReportMetric(float64(r.LargestSize), "npm_largest")
		case ecosys.PyPI:
			b.ReportMetric(float64(r.LargestSize), "pypi_largest")
		}
	}
}

// BenchmarkTable6_ClusteringStage isolates the §III-B embedding + K-Means
// stage — the pipeline's dominant compute.
func BenchmarkTable6_ClusteringStage(b *testing.B) {
	p := pipelineForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg := ingestOneShot(b, p.Dataset, p.Reports)
		b.ReportMetric(float64(mg.G.EdgeCount(graph.Similar)), "similar_edges")
	}
}

// --- F9: Fig. 9 — operation distribution in similar subgraphs. ---
func BenchmarkFigure9_SimilarOps(b *testing.B) {
	p := pipelineForBench(b)
	var dist analysis.OpsDist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = analysis.Operations(p.Graph, graph.Similar)
	}
	b.ReportMetric(dist.CN*100, "cn_pct")
	b.ReportMetric(dist.CC*100, "cc_pct")
	b.ReportMetric(dist.AvgChangedLines, "avg_changed_lines")
}

// --- F10: Fig. 10 — active periods of similar subgraphs. ---
func BenchmarkFigure10_SimilarActive(b *testing.B) {
	p := pipelineForBench(b)
	var st analysis.ActiveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = analysis.ActivePeriods(p.Graph, graph.Similar)
	}
	b.ReportMetric(st.Summary.Mean, "mean_days")
	b.ReportMetric(st.CDF.At(15)*100, "under15d_pct")
}

// --- T7: Table VII — dependency subgraphs. ---
func BenchmarkTable7_DependencySubgraphs(b *testing.B) {
	p := pipelineForBench(b)
	var rows []analysis.SubgraphStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.SubgraphStatsFor(p.Graph, graph.Dependency)
	}
	for _, r := range rows {
		if r.Eco == ecosys.PyPI {
			b.ReportMetric(float64(r.LargestSize), "pypi_largest")
		}
	}
}

// --- T8: Table VIII — most-reused dependency targets. ---
func BenchmarkTable8_DependencyTargets(b *testing.B) {
	p := pipelineForBench(b)
	var targets []analysis.DepTarget
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		targets = analysis.TopDependencyTargets(p.Graph, 2)
	}
	for _, t := range targets {
		if t.Eco == ecosys.PyPI && t.Name == "urllib" {
			b.ReportMetric(float64(t.Count), "urllib_reuse")
		}
	}
	cores, fronts := analysis.DependencyReuse(p.Graph, 3)
	b.ReportMetric(float64(cores), "cores")
	b.ReportMetric(float64(fronts), "fronts")
}

// --- F11: Fig. 11 — active periods of dependency subgraphs. ---
func BenchmarkFigure11_DepActive(b *testing.B) {
	p := pipelineForBench(b)
	var st analysis.ActiveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = analysis.ActivePeriods(p.Graph, graph.Dependency)
	}
	b.ReportMetric(st.Summary.Mean, "mean_days")
	b.ReportMetric(st.CDF.At(10)*100, "under10d_pct")
}

// --- T9: Table IX — co-existing subgraphs. ---
func BenchmarkTable9_CoexistSubgraphs(b *testing.B) {
	p := pipelineForBench(b)
	var rows []analysis.SubgraphStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.SubgraphStatsFor(p.Graph, graph.Coexisting)
	}
	for _, r := range rows {
		if r.Eco == ecosys.PyPI {
			b.ReportMetric(r.AvgSize, "pypi_avg_size")
		}
	}
}

// --- F12: Fig. 12 — operation distribution in co-existing subgraphs. ---
func BenchmarkFigure12_CoexistOps(b *testing.B) {
	p := pipelineForBench(b)
	var dist analysis.OpsDist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = analysis.Operations(p.Graph, graph.Coexisting)
	}
	b.ReportMetric(dist.CN*100, "cn_pct")
}

// --- F13: Fig. 13 — active periods of co-existing subgraphs. ---
func BenchmarkFigure13_CoexistActive(b *testing.B) {
	p := pipelineForBench(b)
	var st analysis.ActiveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = analysis.ActivePeriods(p.Graph, graph.Coexisting)
	}
	b.ReportMetric(st.Summary.Mean, "mean_days")
}

// --- F14: Fig. 14 — IoC statistics and top domains. ---
func BenchmarkFigure14_TopDomains(b *testing.B) {
	p := pipelineForBench(b)
	var summary analysis.IoCSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summary = analysis.IoCs(p.Reports, 10)
	}
	b.ReportMetric(float64(summary.UniqueURLs), "urls")
	b.ReportMetric(float64(summary.UniqueIPs), "ips")
	if len(summary.TopDomains) > 0 {
		b.ReportMetric(float64(summary.TopDomains[0].Count), "top_domain_urls")
	}
}

// --- T10: Table X — detection with and without MALGRAPH. ---
func BenchmarkTable10_Detection(b *testing.B) {
	p := pipelineForBench(b)
	iters := 5
	var rows []DetectionRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = p.RunDetection(iters)
		if err != nil {
			b.Fatal(err)
		}
	}
	var withSum, withoutSum float64
	for _, r := range rows {
		withSum += r.RecallWith
		withoutSum += r.RecallWithout
	}
	b.ReportMetric(withoutSum/4*100, "recall_without_pct")
	b.ReportMetric(withSum/4*100, "recall_with_pct")
}

// --- T11: Table XI — behaviours of the largest similar groups. ---
func BenchmarkTable11_Behaviors(b *testing.B) {
	p := pipelineForBench(b)
	minSize := p.Config.withDefaults().MinBehaviorGroup
	var rows []behavior.GroupRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = behavior.TableXI(p.Graph, minSize)
	}
	b.ReportMetric(float64(len(rows)), "groups")
}

// --- V1: §IV-A — controlled validation sampling. ---
func BenchmarkValidation_Sampling(b *testing.B) {
	p := pipelineForBench(b)
	available := p.Dataset.Available()
	artifacts := make([]*ecosys.Artifact, 0, len(available))
	for _, e := range available {
		artifacts = append(artifacts, e.Artifact)
	}
	n := 100
	if n > len(artifacts) {
		n = len(artifacts)
	}
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detect.ValidateSampling(artifacts, 5, n,
			func(*ecosys.Artifact) bool { return true }, benchRNG(i))
		rate = res.VerifiedRate()
	}
	b.ReportMetric(rate*100, "verified_pct")
}

// --- Substrate micro-benchmarks. ---

// BenchmarkSubstrate_Collection measures the §II-B pipeline alone.
func BenchmarkSubstrate_Collection(b *testing.B) {
	p := pipelineForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := collect.Run(p.World.Sources, p.World.Fleet, p.World.Config.CollectAt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ds.TotalMR()*100, "mr_pct")
	}
}

// BenchmarkSubstrate_Crawl measures the §III-D crawler alone.
func BenchmarkSubstrate_Crawl(b *testing.B) {
	p := pipelineForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := crawler.New(p.World.Web, p.World.Web, crawler.Config{MaxPages: 200000})
		res := c.Crawl(context.Background(), p.World.SeedURLs)
		b.ReportMetric(float64(len(res.Relevant)), "relevant_pages")
	}
}

// BenchmarkSubstrate_ReportParse measures report-body parsing throughput.
func BenchmarkSubstrate_ReportParse(b *testing.B) {
	p := pipelineForBench(b)
	bodies := make([]string, 0, len(p.Reports))
	for _, r := range p.Reports {
		bodies = append(bodies, r.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, body := range bodies {
			total += len(reports.ExtractPackages(body))
			set := reports.ExtractIoCs(body)
			total += len(set.URLs)
		}
		if total == 0 {
			b.Fatal("no parses")
		}
	}
}

func benchRNG(i int) *xrand.RNG { return xrand.New(uint64(i + 1)) }

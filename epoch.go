package malgraph

// Epoch-published reads. Every pipeline mutation (feed append, external
// ingest, restore, journal replay) ends by publishing an immutable Epoch —
// a consistent batch-boundary view of the corpus (graph clone, dataset
// view, precomputed shape stats, durable sequence) — through an
// atomic.Pointer. Readers (Analyze, Stats, Node, the serve query handlers)
// load the current epoch lock-free: the query path never touches the
// ingest mutex, so reads do not stall behind a slow batch and a long
// analysis never stalls the loader.
//
// Results stay incremental across epochs the way they were incremental
// under the old single-lock cache: each epoch carries the last *computed*
// Results as its base plus the dirty-block set accumulated since that
// computation, so Epoch.Results recomputes only the invalidated RQ blocks.
// Epochs whose dirty set is empty reuse the base verbatim — same pointer,
// same results ID, same ETag — which is what lets /api/v1/results answer
// 304 Not-Modified without re-serializing anything.

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"malgraph/internal/analysis"
	"malgraph/internal/behavior"
	"malgraph/internal/codegen"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/detect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/world"
	"malgraph/internal/xrand"
)

// Epoch is one published batch-boundary state. All fields are written
// before the epoch is stored in the pipeline's atomic pointer and never
// mutated afterwards (the lazy caches synchronize through sync.Once), so
// any number of readers share one epoch without locks.
type Epoch struct {
	id      uint64 // monotone publish counter
	seq     uint64 // durable sequence of the last applied ingest
	pending int    // feed batches not yet ingested at publish time

	graph *core.MalGraph // immutable view (core.Engine.View)
	stats PipelineStats  // precomputed shape summary

	cfg   Config
	world *world.World
	crawl crawler.Result

	// Incremental-results chain: base is the most recently computed Results
	// at publish time (nil only before the first computation), baseID the
	// epoch ID it was computed for, dirty the blocks invalidated since.
	base   *Results
	baseID uint64
	dirty  dirtyBlocks

	// resultsID identifies the Results this epoch serves: baseID when the
	// dirty set is empty (the base is reused verbatim), else this epoch's
	// own ID. It is the ETag basis — unchanged results keep their tag.
	resultsID uint64

	once       sync.Once
	results    atomic.Pointer[Results]
	resultsErr error

	// json caches the serialized Results. The cache is shared along a
	// clean-epoch chain (same resultsID ⇒ same *jsonCache), so unchanged
	// results are marshaled at most once however many epochs reuse them.
	json *jsonCache
}

type jsonCache struct {
	once  sync.Once
	bytes []byte
	err   error
}

// ID returns the epoch's monotone publish counter.
func (ep *Epoch) ID() uint64 { return ep.id }

// Seq returns the durable ingest sequence the epoch reflects.
func (ep *Epoch) Seq() uint64 { return ep.seq }

// Stats returns the precomputed pipeline shape summary.
func (ep *Epoch) Stats() PipelineStats { return ep.stats }

// ETag is the HTTP entity tag of this epoch's Results. Epochs that reuse
// an earlier computation verbatim carry that computation's tag, so a
// conditional GET revalidates across no-op publishes.
func (ep *Epoch) ETag() string { return fmt.Sprintf("W/\"epoch-%d\"", ep.resultsID) }

// Node resolves one graph node and its sorted per-type neighbors against
// the epoch's graph view. The node's Attrs is shared with the view and
// must not be modified.
func (ep *Epoch) Node(id string) (graph.Node, map[string][]string, bool) {
	n, ok := ep.graph.G.Node(id)
	if !ok {
		return graph.Node{}, nil, false
	}
	neighbors := make(map[string][]string)
	for _, et := range graph.EdgeTypes() {
		if nb := ep.graph.G.Neighbors(id, et); len(nb) > 0 {
			neighbors[et.String()] = nb
		}
	}
	return n, neighbors, true
}

// Results computes (once) and returns the epoch's analysis results. Only
// the blocks the epoch's dirty set names are recomputed; the rest reuse
// the base computation.
func (ep *Epoch) Results() (*Results, error) {
	ep.once.Do(func() {
		if ep.dirty == (dirtyBlocks{}) && ep.base != nil {
			ep.results.Store(ep.base)
			return
		}
		r, err := computeResults(ep)
		if err != nil {
			ep.resultsErr = err
			return
		}
		ep.results.Store(r)
	})
	if ep.resultsErr != nil {
		return nil, ep.resultsErr
	}
	return ep.results.Load(), nil
}

// ResultsJSON returns the serialized Results, marshaling at most once per
// distinct results ID (clean epochs share the cache with the epoch that
// computed it).
func (ep *Epoch) ResultsJSON() ([]byte, error) {
	ep.json.once.Do(func() {
		r, err := ep.Results()
		if err != nil {
			ep.json.err = err
			return
		}
		b, err := json.Marshal(r)
		if err != nil {
			ep.json.err = err
			return
		}
		ep.json.bytes = append(b, '\n')
	})
	return ep.json.bytes, ep.json.err
}

// CurrentEpoch returns the most recently published epoch. Pipelines are
// published at construction, so the pointer is never nil.
func (p *Pipeline) CurrentEpoch() *Epoch {
	return p.epoch.Load()
}

// publishLocked cuts a new epoch from the pipeline's current state and
// stores it. Callers hold p.mu. Each public mutator publishes exactly once
// on exit — a multi-batch drain clones the graph once, not per batch.
func (p *Pipeline) publishLocked() {
	prev := p.epoch.Load()
	p.epochID++
	ep := &Epoch{
		id:      p.epochID,
		seq:     p.lastSeq,
		pending: len(p.feed) - p.fed,
		graph:   p.Engine.View(),
		cfg:     p.Config,
		world:   p.World,
		crawl:   p.Crawl,
	}
	ep.stats = shapeStats(ep.graph, ep.pending)
	dirt := p.dirty
	p.dirty = dirtyBlocks{}
	switch {
	case prev == nil:
		// First publish: everything must compute.
		ep.dirty = allDirty()
	case prev.results.Load() != nil:
		// The previous epoch's results were computed (or reused): they are
		// the freshest base, invalidated only by what landed since.
		ep.base = prev.results.Load()
		ep.baseID = prev.resultsID
		ep.dirty = dirt
	default:
		// Nobody computed the previous epoch's results: inherit its base
		// and fold this publish's dirt into its outstanding dirt.
		ep.base = prev.base
		ep.baseID = prev.baseID
		ep.dirty = prev.dirty.union(dirt)
	}
	if ep.dirty == (dirtyBlocks{}) && ep.base != nil {
		ep.resultsID = ep.baseID
		ep.json = prev.json
	} else {
		ep.resultsID = ep.id
		ep.json = &jsonCache{}
	}
	p.epoch.Store(ep)
}

func (d dirtyBlocks) union(o dirtyBlocks) dirtyBlocks {
	return dirtyBlocks{
		rq1:        d.rq1 || o.rq1,
		rq2:        d.rq2 || o.rq2,
		rq3:        d.rq3 || o.rq3,
		rq4:        d.rq4 || o.rq4,
		behaviors:  d.behaviors || o.behaviors,
		validation: d.validation || o.validation,
		detection:  d.detection || o.detection,
	}
}

// shapeStats summarizes a graph view (the former Pipeline.Stats body,
// evaluated once at publish time instead of per query under the lock).
func shapeStats(mg *core.MalGraph, pending int) PipelineStats {
	entries, missing := len(mg.Dataset.Entries), mg.Dataset.MissingCount()
	st := PipelineStats{
		Entries:        entries,
		Available:      entries - missing,
		MissingRate:    collect.MissingRate(missing, entries),
		Reports:        len(mg.Reports),
		Nodes:          mg.G.NodeCount(),
		Edges:          mg.G.EdgeCount(),
		EdgesByType:    make(map[string]int, 4),
		PendingBatches: pending,
	}
	for _, et := range graph.EdgeTypes() {
		st.EdgesByType[et.String()] = mg.G.EdgeCount(et)
	}
	return st
}

// computeResults is the analysis body behind Epoch.Results: the former
// Pipeline.Analyze, evaluated against the epoch's immutable view instead
// of the live pipeline state.
func computeResults(ep *Epoch) (*Results, error) {
	dataset, reportCorpus := ep.graph.Dataset, ep.graph.Reports
	dirty := ep.dirty
	if ep.base == nil {
		dirty = allDirty()
	}
	entries, missing := len(dataset.Entries), dataset.MissingCount()
	r := &Results{
		Seed:            ep.cfg.Seed,
		Scale:           ep.cfg.Scale,
		TotalPackages:   entries,
		Available:       entries - missing,
		Missing:         missing,
		TotalMR:         collect.MissingRate(missing, entries),
		CrawledPages:    ep.crawl.Fetched,
		CrawledReports:  len(reportCorpus),
		GraphNodes:      ep.graph.G.NodeCount(),
		GraphEdges:      ep.graph.G.EdgeCount(),
		DuplicatedEdges: ep.graph.G.EdgeCount(graph.Duplicated),
		SimilarEdges:    ep.graph.G.EdgeCount(graph.Similar),
		DependencyEdges: ep.graph.G.EdgeCount(graph.Dependency),
		CoexistingEdges: ep.graph.G.EdgeCount(graph.Coexisting),
	}

	// The RQ blocks read the epoch's immutable products (dataset, graph,
	// reports) and write disjoint Results fields, so they run concurrently;
	// every analysis is itself deterministic, making the merged Results
	// identical to a sequential pass.
	rq1 := func() error {
		perSource := dataset.SourceStats()
		for _, row := range analysis.SourceSizes(perSource) {
			r.SourceSizes = append(r.SourceSizes, SourceSizeRow{
				Source: row.Source.String(), Unavailable: row.Unavailable, Available: row.Available,
			})
		}
		overlap := analysis.Overlap(dataset)
		for _, id := range overlap.IDs {
			r.OverlapNames = append(r.OverlapNames, id.String())
		}
		r.Overlap = overlap.Matrix
		for _, row := range analysis.MissingRates(perSource) {
			r.MissingRates = append(r.MissingRates, MissingRateRow{
				Source: row.Source.String(), Missing: row.Missing, Total: row.Total,
				LocalMR: row.LocalMR, GlobalMR: row.GlobalMR,
			})
		}
		for eco, cdf := range analysis.OccurrenceCDF(dataset) {
			row := OccurrenceRow{
				Ecosystem: eco.String(),
				AtOne:     cdf.At(1), AtTwo: cdf.At(2), AtThree: cdf.At(3),
			}
			if cdf.Len() > 0 { // an ecosystem with no entries has no maximum
				row.Max = cdf.Quantile(1)
			}
			r.OccurrenceCDF = append(r.OccurrenceCDF, row)
		}
		sortOccurrence(r.OccurrenceCDF)
		for _, b := range analysis.Timeline(dataset) {
			r.Timeline = append(r.Timeline, TimelineRow{Year: b.Year, All: b.All, Missing: b.Missing})
		}
		causes := analysis.ClassifyMissing(dataset, ep.world.Fleet)
		r.MissingCauses = MissingCausesRow{
			EarlyRelease: causes.EarlyRelease, ShortPersistence: causes.ShortPersistence, Other: causes.Other,
		}
		return nil
	}

	rq2 := func() error {
		r.SimilarSubgraphs = subgraphRows(analysis.SubgraphStatsFor(ep.graph, graph.Similar))
		r.SimilarOps = opsRow(analysis.Operations(ep.graph, graph.Similar))
		r.SimilarActive = activeRow(analysis.ActivePeriods(ep.graph, graph.Similar))
		div := analysis.Diversity(ep.graph)
		r.Diversity = DiversityRow{
			Packages: div.Packages, Singletons: div.Singletons, Families: div.Families,
			EffectiveFamilies: div.EffectiveFamilies, SimpsonIndex: div.SimpsonIndex,
			Top5Share: div.Top5Share,
		}
		return nil
	}

	rq3 := func() error {
		r.DependencySubgraphs = subgraphRows(analysis.SubgraphStatsFor(ep.graph, graph.Dependency))
		for _, d := range analysis.TopDependencyTargets(ep.graph, 2) {
			r.DependencyTargets = append(r.DependencyTargets, DepTargetRow{
				Ecosystem: d.Eco.String(), Name: d.Name, Count: d.Count,
			})
		}
		cores, fronts := analysis.DependencyReuse(ep.graph, 3)
		r.DepCores, r.DepFronts = cores, fronts
		r.DependencyActive = activeRow(analysis.ActivePeriods(ep.graph, graph.Dependency))
		return nil
	}

	rq4 := func() error {
		r.CoexistSubgraphs = subgraphRows(analysis.SubgraphStatsFor(ep.graph, graph.Coexisting))
		r.CoexistOps = opsRow(analysis.Operations(ep.graph, graph.Coexisting))
		r.CoexistActive = activeRow(analysis.ActivePeriods(ep.graph, graph.Coexisting))
		return nil
	}

	// RQ4's §V-D accounting and Fig. 14 read only the report corpus, so
	// they run beside the co-existing subgraph work instead of after it.
	iocs := func() error {
		sum := analysis.IoCs(reportCorpus, 10)
		r.IoCs = IoCRow{
			UniqueURLs: sum.UniqueURLs, UniqueIPs: sum.UniqueIPs,
			PowerShell: sum.PowerShell, MaxSameIPReports: sum.MaxSameIPReports,
		}
		for _, d := range sum.TopDomains {
			r.TopDomains = append(r.TopDomains, DomainRow{Domain: d.Domain, Count: d.Count})
		}
		return nil
	}

	// §VI-B — Table XI.
	behaviors := func() error {
		for _, row := range behavior.TableXI(ep.graph, minBehaviorGroup(ep.cfg.Scale)) {
			r.Behaviors = append(r.Behaviors, BehaviorRow{
				Ecosystem: row.Eco.String(), Size: row.Size,
				Behaviors: row.Behaviors, Source: row.Source,
			})
		}
		return nil
	}

	// §IV-A — controlled validation experiment (own derived RNG stream).
	validation := func() error {
		r.Validation = validationOf(ep.cfg, ep.world, dataset)
		return nil
	}

	// Run only the invalidated blocks; serve the rest from the base.
	tasks := make([]func() error, 0, 7)
	for _, blk := range []struct {
		dirty bool
		run   func() error
		reuse func(from *Results)
	}{
		{dirty.rq1, rq1, func(c *Results) {
			r.SourceSizes, r.OverlapNames, r.Overlap = c.SourceSizes, c.OverlapNames, c.Overlap
			r.MissingRates, r.OccurrenceCDF, r.Timeline = c.MissingRates, c.OccurrenceCDF, c.Timeline
			r.MissingCauses = c.MissingCauses
		}},
		{dirty.rq2, rq2, func(c *Results) {
			r.SimilarSubgraphs, r.SimilarOps = c.SimilarSubgraphs, c.SimilarOps
			r.SimilarActive, r.Diversity = c.SimilarActive, c.Diversity
		}},
		{dirty.rq3, rq3, func(c *Results) {
			r.DependencySubgraphs, r.DependencyTargets = c.DependencySubgraphs, c.DependencyTargets
			r.DepCores, r.DepFronts, r.DependencyActive = c.DepCores, c.DepFronts, c.DependencyActive
		}},
		{dirty.rq4, rq4, func(c *Results) {
			r.CoexistSubgraphs, r.CoexistOps, r.CoexistActive = c.CoexistSubgraphs, c.CoexistOps, c.CoexistActive
		}},
		{dirty.rq4, iocs, func(c *Results) { r.IoCs, r.TopDomains = c.IoCs, c.TopDomains }},
		{dirty.behaviors, behaviors, func(c *Results) { r.Behaviors = c.Behaviors }},
		{dirty.validation, validation, func(c *Results) { r.Validation = c.Validation }},
	} {
		if blk.dirty {
			tasks = append(tasks, blk.run)
		} else {
			blk.reuse(ep.base)
		}
	}
	if err := parallel.Do(tasks...); err != nil {
		return nil, err
	}

	// §VI-A — Table X (optional).
	if ep.cfg.Detection {
		if dirty.detection {
			det, err := detectionOf(ep.cfg, ep.graph, ep.cfg.DetectionIterations)
			if err != nil {
				return nil, err
			}
			r.Detection = det
		} else {
			r.Detection = ep.base.Detection
		}
	}
	return r, nil
}

// validationOf reproduces §IV-A: five 100-package samples scanned by the
// rule scanner, with scanner misses adjudicated against ground truth (the
// stand-in for the paper's manual reverse-engineering inspection).
func validationOf(cfg Config, w *world.World, dataset *collect.Result) ValidationRow {
	available := dataset.Available()
	artifacts := make([]*ecosys.Artifact, 0, len(available))
	for _, e := range available {
		artifacts = append(artifacts, e.Artifact)
	}
	sampleSize := 100
	if sampleSize > len(artifacts) {
		sampleSize = len(artifacts)
	}
	res := detect.ValidateSampling(artifacts, 5, sampleSize, func(a *ecosys.Artifact) bool {
		rec, ok := w.Record(a.Coord)
		return ok && rec != nil // every corpus member is ground-truth malware
	}, xrand.New(cfg.Seed).Derive("validation"))
	return ValidationRow{
		Experiments: res.Experiments, SampleSize: res.SampleSize,
		ScannerRate: res.ScannerRate(), VerifiedRate: res.VerifiedRate(),
	}
}

// detectionOf executes the Table X experiment on a graph view's NPM
// similar clusters.
func detectionOf(cfg Config, mg *core.MalGraph, iterations int) ([]DetectionRow, error) {
	clusters := npmClustersOf(mg)
	if len(clusters) < 4 {
		return nil, fmt.Errorf("malgraph: only %d NPM clusters; need ≥4 for Table X", len(clusters))
	}
	benignCount := int(3500 * cfg.Scale)
	if benignCount < 60 {
		benignCount = 60
	}
	benign := codegen.GenerateBenignPool(ecosys.NPM, benignCount, xrand.New(cfg.Seed).Derive("benign"))
	dcfg := detect.DefaultTableXConfig()
	dcfg.Iterations = iterations
	dcfg.Seed = cfg.Seed
	dcfg.ClustersPerIter = len(clusters) / 4
	if dcfg.ClustersPerIter < 2 {
		dcfg.ClustersPerIter = 2
	}
	rows, err := detect.RunTableX(clusters, benign, dcfg)
	if err != nil {
		return nil, fmt.Errorf("malgraph: table X: %w", err)
	}
	out := make([]DetectionRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, DetectionRow{
			Algorithm:  row.Algorithm,
			AccWithout: row.AccWithout, AccWith: row.AccWith,
			RecallWithout: row.RecallWithout, RecallWith: row.RecallWith,
		})
	}
	return out, nil
}

// npmClustersOf returns a view's NPM similar clusters as artifact groups —
// the "tracked malware packages" §VI-A trains on. A cluster is the member
// set of the similar edges sharing one "cluster" label, its partition key
// plus "#0". Clusters come in partition-key order, as the clustering
// derived them; the raw labels can sort otherwise, since '#' sorts above
// '!' and '"' ("a#0" > "a!b#0" though "a" < "a!b").
func npmClustersOf(mg *core.MalGraph) [][]*ecosys.Artifact {
	members := make(map[string][]string)
	for _, ed := range mg.G.Edges(graph.Similar) {
		key := strings.TrimSuffix(ed.Attrs["cluster"], "#0")
		members[key] = append(members[key], ed.From, ed.To)
	}
	var clusters [][]*ecosys.Artifact
	for _, key := range slices.Sorted(maps.Keys(members)) {
		ids := members[key]
		slices.Sort(ids)
		var arts []*ecosys.Artifact
		for _, id := range slices.Compact(ids) {
			if e, ok := mg.EntryByNodeID(id); ok && e.Coord.Ecosystem == ecosys.NPM && e.Artifact != nil {
				arts = append(arts, e.Artifact)
			}
		}
		if len(arts) >= 2 {
			clusters = append(clusters, arts)
		}
	}
	return clusters
}

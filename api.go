package malgraph

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"malgraph/internal/analysis"
	"malgraph/internal/attacker"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/registry"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
	"malgraph/internal/world"
)

// Config controls a full pipeline run.
type Config struct {
	// Seed makes the whole run reproducible; 0 uses the library default.
	Seed uint64
	// Scale multiplies the paper's corpus-size targets; 1.0 ≈ 24k packages,
	// 0.05 ≈ 1.2k. 0 defaults to 0.05.
	Scale float64
	// Detection enables the §VI-A Table X experiment (training 4 models ×
	// 2 settings × DetectionIterations runs; the most expensive stage).
	Detection bool
	// DetectionIterations overrides the paper's 50 iterations (0 = 50 when
	// Detection is set).
	DetectionIterations int
	// MinBehaviorGroup is the Table XI group-size threshold; 0 scales the
	// paper's 100 by Scale.
	MinBehaviorGroup int
	// MaxPages bounds the §III-D report crawl (0 = 200,000 — effectively
	// unbounded at paper scale). Serve-mode re-crawls set this lower to keep
	// ingest latency bounded.
	MaxPages int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20240404
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Detection && c.DetectionIterations <= 0 {
		c.DetectionIterations = 50
	}
	if c.MinBehaviorGroup <= 0 {
		c.MinBehaviorGroup = int(100*c.Scale + 0.5)
		if c.MinBehaviorGroup < 3 {
			c.MinBehaviorGroup = 3
		}
	}
	if c.MaxPages <= 0 {
		c.MaxPages = 200000
	}
	return c
}

// Pipeline holds every intermediate product of a run, for callers that want
// to go deeper than the Results summary. A Pipeline is either *batch* (built
// by BuildPipeline, fully ingested) or *streaming* (built by
// NewStreamingPipeline, fed incrementally through Append/AppendNext); in
// both modes Analyze serves from a cache that only recomputes the analysis
// blocks each batch actually invalidated.
type Pipeline struct {
	Config  Config
	World   *world.World
	Dataset *collect.Result
	Reports []*reports.Report
	Graph   *core.MalGraph
	Crawl   crawler.Result
	Engine  *core.Engine

	mu   sync.Mutex
	feed []core.Batch // pending ingest batches (streaming mode); guarded by mu
	fed  int          // guarded by mu
	// epoch is the published read path: every mutator exits by storing a
	// fresh immutable Epoch here (see epoch.go), and every reader loads it
	// without touching mu. dirty accumulates the analysis blocks invalidated
	// since the last publish; publishLocked folds it into the epoch's
	// incremental-results chain and resets it.
	epoch   atomic.Pointer[Epoch]
	epochID uint64      // guarded by mu
	dirty   dirtyBlocks // guarded by mu
	// source retains the collected dataset and parsed report corpus the feed
	// was cut from (with its recorded per-entry accounting), for callers that
	// re-partition the world — the shuffle property tests and serve mode.
	source        *collect.Result
	sourceReports []*reports.Report
	// view and resolver implement the external ingest path: raw
	// observations POSTed by publishers are resolved against the engine's
	// dataset through view (default: the in-process world fleet) before
	// being appended. Lazily created on first AppendExternal. guarded by mu.
	view     registry.View
	resolver *collect.Resolver // guarded by mu
	// journal, when attached, receives every accepted ingest (external
	// observations/reports and feed batches) as an fsync'd WAL record
	// before the engine applies it; lastSeq is the sequence of the last
	// batch this pipeline's engine reflects. See durable.go. guarded by mu.
	journal *wal.Log
	lastSeq uint64 // guarded by mu
}

// Source returns the full collected dataset and report corpus behind the
// pipeline's feed — the world as collected, independent of how much of it
// has been ingested.
func (p *Pipeline) Source() (*collect.Result, []*reports.Report) {
	return p.source, p.sourceReports
}

// dirtyBlocks tracks which Analyze blocks must recompute after an Append.
type dirtyBlocks struct {
	rq1, rq2, rq3, rq4, behaviors, validation, detection bool
}

func allDirty() dirtyBlocks {
	return dirtyBlocks{rq1: true, rq2: true, rq3: true, rq4: true, behaviors: true, validation: true, detection: true}
}

func (d *dirtyBlocks) merge(st core.IngestStats) {
	if st.UpdatedEntries > 0 {
		// Merged entries can shift timestamps and availability anywhere;
		// recompute everything rather than track field-level provenance.
		*d = allDirty()
		return
	}
	if st.DatasetChanged() {
		d.rq1 = true
		d.validation = true
	}
	if st.SimilarChanged() {
		d.rq2 = true
		d.behaviors = true
		d.detection = true
	}
	if st.DependencyChanged() {
		d.rq3 = true
	}
	if st.CoexistingChanged() {
		d.rq4 = true
		d.behaviors = true
	}
}

// Run executes the complete reproduction pipeline: build the simulated
// world, run the §II-B collection, crawl and parse the report web, build
// MALGRAPH, and compute every table and figure.
func Run(cfg Config) (*Results, error) {
	p, err := BuildPipeline(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return p.Analyze()
}

// BuildPipeline runs every stage up to and including MALGRAPH construction
// (the whole corpus ingested as one batch).
func BuildPipeline(ctx context.Context, cfg Config) (*Pipeline, error) {
	p, err := NewStreamingPipeline(ctx, cfg, 1)
	if err != nil {
		return nil, err
	}
	if _, ok, err := p.AppendNext(); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("malgraph: empty feed")
	}
	return p, nil
}

// NewStreamingPipeline builds the simulated world, runs collection and the
// report crawl, and partitions the corpus into `batches` time-ordered ingest
// batches — but ingests none of them. The caller drives the engine through
// AppendNext (replaying the world's timeline) or Append (arbitrary batches);
// Analyze works at any point and reflects what has been ingested so far.
func NewStreamingPipeline(ctx context.Context, cfg Config, batches int) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	w, err := world.Build(world.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, fmt.Errorf("malgraph: build world: %w", err)
	}
	ds, err := collect.Run(w.Sources, w.Fleet, w.Config.CollectAt)
	if err != nil {
		return nil, fmt.Errorf("malgraph: collect: %w", err)
	}
	cr := crawler.New(w.Web, w.Web, crawler.Config{MaxPages: cfg.MaxPages})
	crawlRes := cr.Crawl(ctx, w.SeedURLs)
	reportCorpus := reports.FromPages(crawlRes.Relevant, w.Config.CollectAt)

	eng := core.NewEngine(core.DefaultConfig())
	p := &Pipeline{
		Config:        cfg,
		World:         w,
		Dataset:       eng.Dataset(),
		Reports:       eng.Reports(),
		Graph:         eng.Graph(),
		Crawl:         crawlRes,
		Engine:        eng,
		feed:          BatchFeed(ds, reportCorpus, batches),
		dirty:         allDirty(),
		source:        ds,
		sourceReports: reportCorpus,
	}
	p.publishLocked() // epoch 1: the empty engine (nothing ingested yet)
	return p, nil
}

// BatchFeed partitions a collected dataset and its report corpus into k
// ingest batches: entries in timeline order (collect.NewFeed), reports in
// contiguous URL-order slices.
func BatchFeed(ds *collect.Result, reportCorpus []*reports.Report, k int) []core.Batch {
	feed := collect.NewFeed(ds, k)
	out := make([]core.Batch, 0, feed.Len())
	n := feed.Len()
	for i := 0; ; i++ {
		cb, ok := feed.Next()
		if !ok {
			break
		}
		lo, hi := i*len(reportCorpus)/n, (i+1)*len(reportCorpus)/n
		out = append(out, core.Batch{
			Entries:   cb.Entries,
			PerSource: cb.PerSource,
			Stats:     cb.Stats,
			Reports:   reportCorpus[lo:hi],
			At:        cb.At,
		})
	}
	return out
}

// Append ingests one raw batch into the engine and invalidates exactly the
// Results blocks the batch touched. The next Analyze recomputes those blocks
// and serves the rest from cache. The ingest itself is LSH-scoped: only the
// similarity partitions containing the batch's new artifacts re-cluster (see
// core.IngestStats' recluster-scope accounting), so append cost tracks the
// delta, not the corpus. A raw batch has no journal record kind, so on a
// pipeline with a journal attached Append refuses and changes nothing —
// journaled ingest goes through AppendPending or AppendExternal.
func (p *Pipeline) Append(b core.Batch) (core.IngestStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal != nil {
		return core.IngestStats{}, errors.New("malgraph: append: a raw batch cannot be journaled; use AppendPending or AppendExternal")
	}
	st, err := p.ingestLocked(b)
	if err == nil {
		p.publishLocked()
	}
	return st, err
}

// ingestLocked applies b to the engine, refreshes the pipeline's views and
// folds the invalidated Results blocks into p.dirty.
func (p *Pipeline) ingestLocked(b core.Batch) (core.IngestStats, error) {
	st, err := p.Engine.Ingest(b)
	if err != nil {
		return st, fmt.Errorf("malgraph: append: %w", err)
	}
	p.Dataset = p.Engine.Dataset()
	p.Reports = p.Engine.Reports()
	p.Graph = p.Engine.Graph()
	p.dirty.merge(st)
	return st, nil
}

// SetExternalView routes artifact recovery for externally delivered
// observations through v — typically a registry.RemoteFleet speaking HTTP to
// live registry endpoints — instead of the in-process world fleet. Calling
// it resets the resolver, dropping its per-coordinate recovery cache.
func (p *Pipeline) SetExternalView(v registry.View) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.view = v
	p.resolver = nil
}

// AppendExternal is the loader inlet: it resolves raw source observations
// against the engine's current dataset — dedupe by coordinate, source-first
// artifact adoption, mirror recovery through the configured registry view,
// release-metadata lookup — and ingests the resulting batch together with
// any externally published reports. Resolution is evaluated at the world's
// collection instant, so the same observations delivered in any batch
// partition yield Results bit-identical to a one-shot Build of the merged
// corpus. The returned sequence is this batch's own durable sequence
// number (read under the same lock the append held, so concurrent pushers
// each get the sequence of their batch, not a later one's). A transport
// failure from a remote registry aborts the append with
// collect.ErrUnresolved and ingests nothing — the caller retries; a
// malformed observation aborts with collect.ErrBadObservation.
func (p *Pipeline) AppendExternal(obs []collect.Observation, reps []*reports.Report) (core.IngestStats, uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, err := p.applyLocked(record{kind: recExternal, ext: externalRecord{Observations: obs, Reports: reps}}, 0)
	if err == nil {
		p.publishLocked()
	}
	return st, p.lastSeq, err
}

// AppendNext ingests the next pending feed batch; ok=false when the feed is
// exhausted.
func (p *Pipeline) AppendNext() (core.IngestStats, bool, error) {
	stats, _, ok, err := p.AppendPending(1, true)
	if len(stats) == 0 {
		return core.IngestStats{}, ok, err
	}
	return stats[0], ok, err
}

// AppendPending ingests up to n pending feed batches under one lock
// acquisition (n < 0 drains the feed). With exact set, the request is
// all-or-nothing: when fewer than n batches are pending, nothing is ingested
// and ok=false — the atomicity the serve API's ?n=K contract promises, which
// a check-then-loop caller could not guarantee against concurrent ingesters.
// seq is the durable sequence of the last batch this call applied (read
// under the same lock, so it never names a concurrent pusher's batch); on a
// mid-loop failure stats still carries the batches that were journaled and
// applied before the failure — those are durable and their feed positions
// consumed, so the caller must account for them rather than retry them.
func (p *Pipeline) AppendPending(n int, exact bool) (stats []core.IngestStats, seq uint64, ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// One publish covers the whole drain: the epoch clone is paid per call,
	// not per batch. A mid-loop failure still publishes what landed — those
	// batches are durable and visible.
	defer func() {
		if len(stats) > 0 {
			p.publishLocked()
		}
	}()
	pending := len(p.feed) - p.fed
	if n < 0 || n > pending {
		if exact && n > pending {
			return nil, p.lastSeq, false, nil
		}
		n = pending
	}
	for i := 0; i < n; i++ {
		st, err := p.applyLocked(record{kind: recFeed, feed: feedRecord{Index: p.fed}}, 0)
		if err != nil {
			return stats, p.lastSeq, true, err
		}
		stats = append(stats, st)
	}
	return stats, p.lastSeq, true, nil
}

// PendingBatches reports how many feed batches AppendNext has not ingested.
func (p *Pipeline) PendingBatches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.feed) - p.fed
}

// PipelineStats is a consistent snapshot of the corpus and graph shape,
// taken under the pipeline lock (safe against a concurrent Append).
type PipelineStats struct {
	Entries        int
	Available      int
	MissingRate    float64
	Reports        int
	Nodes          int
	Edges          int
	EdgesByType    map[string]int
	PendingBatches int
}

// Stats reports the pipeline shape of the current epoch — precomputed at
// publish time, so the call never touches the ingest mutex.
func (p *Pipeline) Stats() PipelineStats {
	return p.CurrentEpoch().Stats()
}

// Node resolves one graph node and its sorted per-type neighbors against
// the current epoch's graph view, lock-free.
func (p *Pipeline) Node(id string) (graph.Node, map[string][]string, bool) {
	return p.CurrentEpoch().Node(id)
}

// SnapshotEngine checkpoints the engine (graph, dataset, caches) to w. The
// snapshot is stamped with the last journaled ingest sequence the engine
// reflects, so WAL recovery replays only the suffix the checkpoint does not
// already contain.
func (p *Pipeline) SnapshotEngine(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotEngineLocked(w)
}

func (p *Pipeline) snapshotEngineLocked(w io.Writer) error {
	p.Engine.SetAppliedSeq(p.lastSeq)
	p.Engine.SetFeedPos(p.fed)
	return p.Engine.Snapshot(w)
}

// RestoreEngine swaps in an engine checkpoint (core.RestoreEngine) — the
// warm-restart path: embeddings, cluster state and scan caches come back
// with the graph, so serving resumes without an O(corpus) rebuild. The feed
// cursor restores from the snapshot's stamp (pre-v4 snapshots carry none and
// restart it at zero; re-draining already-ingested batches is an idempotent
// no-op), and journal replay advances it further from any feed records past
// the checkpoint.
func (p *Pipeline) RestoreEngine(r io.Reader) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng, err := core.RestoreEngine(r)
	if err != nil {
		return fmt.Errorf("malgraph: restore: %w", err)
	}
	p.adoptEngineLocked(eng)
	return nil
}

// adoptEngineLocked swaps the restored engine in and republishes: views,
// sequence stamp, feed cursor, journal floor and a full-dirty epoch. Caller
// holds p.mu.
func (p *Pipeline) adoptEngineLocked(eng *core.Engine) {
	p.Engine = eng
	p.Dataset = eng.Dataset()
	p.Reports = eng.Reports()
	p.Graph = eng.Graph()
	p.lastSeq = eng.AppliedSeq()
	if p.fed = eng.FeedPos(); p.fed > len(p.feed) {
		// The feed was re-partitioned since the snapshot (different
		// -batches); the saved cursor has no meaning in the new partition,
		// so fall back to the idempotent full re-drain.
		p.fed = 0
	}
	if p.journal != nil {
		p.journal.EnsureSeq(p.lastSeq)
	}
	p.dirty = allDirty()
	p.publishLocked()
}

// Analyze computes the Results for the current epoch, lock-free: it loads
// the published epoch and computes (once per epoch, shared by all callers)
// only the analysis blocks the epoch's ingests invalidated — a small delta
// after a large corpus costs the affected RQ blocks, not a full
// re-analysis. A concurrent ingest never blocks Analyze and Analyze never
// blocks an ingest: the computation runs against the epoch's immutable
// view while the loader keeps writing.
func (p *Pipeline) Analyze() (*Results, error) {
	return p.CurrentEpoch().Results()
}

// RunDetection executes the Table X experiment on the current epoch's NPM
// similar clusters.
func (p *Pipeline) RunDetection(iterations int) ([]DetectionRow, error) {
	return detectionOf(p.Config, p.CurrentEpoch().graph, iterations)
}

// NPMClusters returns the current epoch's NPM similar clusters as artifact
// groups — the "tracked malware packages" §VI-A trains on.
func (p *Pipeline) NPMClusters() [][]*ecosys.Artifact {
	return npmClustersOf(p.CurrentEpoch().graph)
}

// GroundTruth exposes the simulated world's campaign ledger (for calibration
// and example programs).
func (p *Pipeline) GroundTruth() []*attacker.Campaign { return p.World.Campaigns }

func subgraphRows(in []analysis.SubgraphStats) []SubgraphRow {
	out := make([]SubgraphRow, 0, len(in))
	for _, s := range in {
		out = append(out, SubgraphRow{
			Ecosystem: s.Eco.String(), PkgNum: s.PkgNum, SubgraphNum: s.SubgraphNum,
			AvgSize: s.AvgSize, LargestSize: s.LargestSize,
		})
	}
	return out
}

func opsRow(d analysis.OpsDist) OpsRow {
	return OpsRow{
		CN: d.CN, CV: d.CV, CD: d.CD, CDep: d.CDep, CC: d.CC,
		Transitions: d.Transitions, AvgChangedLines: d.AvgChangedLines,
	}
}

func activeRow(a analysis.ActiveStats) ActiveRow {
	row := ActiveRow{
		Groups: a.CDF.Len(), MeanDays: a.Summary.Mean, MedianDays: a.Summary.Median,
		Over60Days: a.Over60d,
	}
	if a.CDF.Len() > 0 {
		row.P80Days = a.CDF.Quantile(0.8)
		row.Under15DaysFrac = a.CDF.At(15)
		row.Under10DaysFrac = a.CDF.At(10)
	}
	return row
}

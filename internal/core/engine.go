package core

// Engine builds MALGRAPH as a long-lived instance that ingests (entries,
// reports) batches as registries and report feeds publish them (§II-B is a
// continuous collection process; a one-shot build is the degenerate
// single-batch case). All four edge families are maintained incrementally
// through persistent indexes, one file per family: duplicated.go (§III-A),
// similar.go (§III-B), dependency.go (§III-C) and coexisting.go (§III-D).
// This file holds the Ingest skeleton: merge the batch into the dataset,
// plan every family, then commit the plans serially.
//
// Determinism contract: ingesting a corpus in any batch partition yields a
// graph whose connected components, edge sets and all downstream analyses
// are identical to a one-shot build of the merged corpus. (Edge *insertion
// order* — and therefore serialized JSON byte order — may differ between
// partitions; every analysis consumes components, counts or sorted views.)
// The contract holds because every stage either derives a monotone edge set
// (duplicated, dependency) or re-derives the affected family from merged
// state that is itself partition-independent: items enter clustering sorted
// by node ID and reports sorted by URL, exactly the order one batch sees.

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/depscan"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/textsim"
)

// Batch is one ingest installment: dataset entries, each carrying its
// per-source accounting (collect.TimelineBatches or
// collect.Resolver.Resolve), plus newly published security reports.
type Batch struct {
	Entries []*collect.Entry
	// PerSource is never set or read; only the servebench harness names it.
	PerSource map[sources.ID]collect.SourceStats
	// Stats is never set or read; only the servebench harness names it.
	Stats   map[string]collect.EntryStat
	Reports []*reports.Report
	// At is the collection instant; recorded once (first non-zero wins).
	At time.Time
}

// IngestStats summarises what one Ingest call changed — the invalidation
// signal the API layer uses to recompute only affected analysis blocks.
type IngestStats struct {
	NewEntries     int
	UpdatedEntries int
	NewArtifacts   int
	NewReports     int
	// DuplicateReports counts batch reports whose URL was already ingested
	// (dropped — the corpus keeps the first crawl); of those,
	// DuplicateReportConflicts had different content (body, packages or
	// IoCs) — a re-crawled report that changed, which previously vanished
	// without a trace.
	DuplicateReports         int
	DuplicateReportConflicts int
	// Reclustered lists the ecosystems whose §III-B clustering re-ran.
	Reclustered []ecosys.Ecosystem
	// Recluster-scope accounting for the LSH-scoped partial re-clustering:
	// of the DirtyEcoItems artifacts in the touched ecosystems, only the
	// ArtifactsReclustered inside PartitionsReclustered LSH partitions were
	// actually re-clustered — the gap is the O(ecosystem) work the partition
	// scoping avoided.
	PartitionsReclustered int
	ArtifactsReclustered  int
	DirtyEcoItems         int
	// Edge deltas by type, net of the edges a batch replaces.
	DuplicatedDelta int
	DependencyDelta int
	SimilarDelta    int
	CoexistingDelta int
	// Report-join scope accounting for the §III-D co-existing stage:
	// ReportsRejoined counts previously joined reports re-joined this batch
	// (because a package they name arrived, or a late report overlapped
	// their groups); CoexistingEdgesReplaced counts edges surgically removed
	// for re-derivation (first-writer ownership repairs plus hub-and-path
	// group replacements). CoexistingScoped reports that the scoped re-join
	// machinery ran.
	ReportsRejoined         int
	CoexistingEdgesReplaced int
	CoexistingScoped        bool
	// CoexistingRebuilt is never set: the stage has no full-rebuild path
	// any more. It stays only because the servebench harness reads it.
	CoexistingRebuilt bool
}

// DatasetChanged reports whether the merged dataset differs from before the
// batch (RQ1 and validation inputs).
func (s IngestStats) DatasetChanged() bool { return s.NewEntries > 0 || s.UpdatedEntries > 0 }

// SimilarChanged reports whether similar clusters may differ (RQ2, Table XI,
// detection inputs).
func (s IngestStats) SimilarChanged() bool { return len(s.Reclustered) > 0 }

// DependencyChanged reports whether dependency edges were added (RQ3 inputs).
func (s IngestStats) DependencyChanged() bool { return s.DependencyDelta != 0 }

// CoexistingChanged reports whether co-existing edges or the report corpus
// changed (RQ4 inputs).
func (s IngestStats) CoexistingChanged() bool {
	return s.CoexistingScoped || s.NewReports > 0
}

// ecoShard is one ecosystem's slice of the engine state. The §III edge
// families the shard feeds (duplicated record cliques aside, which are
// per-entry) never cross ecosystems: dependency names resolve within one
// registry, and similar clusters are computed per ecosystem. That
// independence is what lets Ingest plan every shard of a batch in parallel
// (see planShardLocked) — each shard mutates only its own indexes and emits
// a pure plan of graph operations, which a serial commit phase applies in
// sorted-ecosystem order so the result is deterministic under any
// GOMAXPROCS.
type ecoShard struct {
	// Corpus dictionary (§III-C): name → canonical node IDs. It grows
	// monotonically.
	byName map[string][]string
	// Reverse import index: imported name → canonical node IDs of the
	// already-scanned fronts importing it (self-name imports excluded),
	// which backward linking reads. Checkpoints do not persist it; a
	// restore's replay re-scans the artifacts.
	importers map[string][]string

	// lsh is the one store of the §III-B per-artifact products (one
	// textsim.Item per artifact node) and partitions them by verified
	// band-candidate connectivity under cfg.Cluster (LSHBands, Threshold)
	// — the unit of incremental re-clustering. Partition identity is
	// content-derived (canonical key = smallest member node ID), so any
	// batch order reproduces the same partitions. The partitions' clusters
	// live in the graph only, as similar edges labelled with the partition
	// key.
	lsh *textsim.LSHIndex
}

func newEcoShard(cfg textsim.ClusterConfig) *ecoShard {
	return &ecoShard{
		byName:    make(map[string][]string),
		importers: make(map[string][]string),
		lsh:       textsim.NewLSHIndex(cfg),
	}
}

// Engine maintains MALGRAPH incrementally across Ingest batches. Its own
// state is its shards and persistence bookkeeping: the §III-D join keeps
// its report index and pair owners in the MalGraph (see planCoexistingLocked).
// How the state arrived is not the engine's: the journal sequence and feed
// cursor a checkpoint carries are the caller's, passed to Snapshot and
// returned by RestoreEngineWithStore (Stamps).
type Engine struct {
	mu  sync.Mutex
	cfg Config
	mg  *MalGraph

	embedder *textsim.Embedder
	scanner  *depscan.Scanner

	// shards holds the per-ecosystem state (corpus dictionaries, import
	// indexes, LSH indexes holding the clustering items); see ecoShard.
	// Created on first use. guarded by mu.
	shards map[ecosys.Ecosystem]*ecoShard

	// Segmented persistence (snapshot5.go). Snapshot writes a small manifest
	// plus delta chunks into the attached content store — O(changes since
	// the last checkpoint); without a store the engine cannot checkpoint.
	store *castore.Store // guarded by mu
	// sections holds, indexed by sectionID, each delta-logged section's
	// chunk log (the manifest's pointer lists plus the accounting the
	// re-base policy reads) and the keys it changed since the last
	// checkpoint; non-nil exactly when store is. guarded by mu.
	sections []section
	// artifactRefs caches, per coordinate key, the durable blob holding the
	// entry's artifact — populated only after the blob's segment is fsynced,
	// so a cached ref always resolves. guarded by mu.
	artifactRefs map[string]artifactRef
}

// NewEngine creates an empty engine. Zero-valued config falls back to the
// paper's parameters.
func NewEngine(cfg Config) *Engine {
	if cfg.PairwiseLimit <= 0 {
		cfg = DefaultConfig()
	}
	return &Engine{
		cfg: cfg,
		mg: &MalGraph{
			G:       graph.New(),
			Dataset: collect.NewResult(time.Time{}),
		},
		embedder: textsim.NewEmbedder(cfg.Embed),
		scanner:  depscan.NewScanner(),
		shards:   make(map[ecosys.Ecosystem]*ecoShard),
	}
}

// shardLocked returns the ecosystem's shard, creating it on first use.
func (e *Engine) shardLocked(eco ecosys.Ecosystem) *ecoShard {
	sh := e.shards[eco]
	if sh == nil {
		sh = newEcoShard(e.cfg.Cluster)
		e.shards[eco] = sh
	}
	return sh
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the live MALGRAPH. The graph store itself is safe for
// concurrent reads; a concurrent Ingest may be observed mid-batch.
func (e *Engine) Graph() *MalGraph { return e.mg }

// Dataset returns the merged dataset the engine has ingested so far.
func (e *Engine) Dataset() *collect.Result { return e.mg.Dataset }

// Reports returns the merged, URL-sorted report corpus.
func (e *Engine) Reports() []*reports.Report { return e.mg.Reports }

// View returns an immutable snapshot of the engine's read state — the
// MalGraph an epoch-published read path serves from while Ingest keeps
// writing. Containers are cloned copy-on-write (the graph via graph.Clone,
// the dataset's key index via collect.Result.View, the per-package report
// index via cow.Map.Clone): the next Ingest copies the shards, pages and
// lists it touches, plus each written cow.Map's shard table once (one
// 32-byte header per 4–8 keys) and the graph's page-pointer table. Leaves are shared where the
// writer provably never mutates them in place: dataset entries (UpsertBatch
// replaces changed entries), reports (first crawl wins) and per-package
// report lists (indexReportForPackage copy-inserts). What
// still grows with the corpus is those table copies and two pointer-slice
// copies — the dataset's Entries and the report corpus — paid once per
// publish by the writer.
func (e *Engine) View() *MalGraph {
	e.mu.Lock()
	defer e.mu.Unlock()
	mg := e.mg
	v := &MalGraph{
		G:            mg.G.Clone(),
		Dataset:      mg.Dataset.View(),
		Reports:      make([]*reports.Report, len(mg.Reports)),
		reportsByPkg: mg.reportsByPkg.Clone(),
		subgraphs:    &subgraphMemo{},
	}
	copy(v.Reports, mg.Reports)
	return v
}

// entryChange tracks what one batch entry did to the merged dataset.
type entryChange struct {
	entry       *collect.Entry
	isNew       bool
	newArtifact bool
	newSources  []sources.ID // sources not present before the batch
}

// Ingest merges one batch of entries and reports into MALGRAPH. Cost is
// O(batch + dirty-ecosystem clustering + report re-join), not O(corpus).
func (e *Engine) Ingest(b Batch) (IngestStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st IngestStats

	if e.mg.Dataset.CollectedAt.IsZero() && !b.At.IsZero() {
		e.mg.Dataset.CollectedAt = b.At
	}
	changes := e.mergeEntries(b.Entries, &st)
	err := e.applyShardsLocked(changes, b.Reports, &st)
	return st, err
}

func (e *Engine) mergeEntries(entries []*collect.Entry, st *IngestStats) []entryChange {
	// One batched upsert: new coordinates are spliced into the key-sorted
	// dataset with a single merge instead of an O(corpus) shift per entry.
	results := e.mg.Dataset.UpsertBatch(entries)
	changes := make([]entryChange, 0, len(results))
	for _, ur := range results {
		if !ur.Added && !ur.Changed {
			continue
		}
		merged := ur.Entry
		ch := entryChange{
			entry:       merged,
			isNew:       ur.Added,
			newArtifact: merged.Artifact != nil && !ur.PrevArtifact,
		}
		for _, s := range merged.Sources {
			if ur.Added || !slices.Contains(ur.PrevSources, s) {
				ch.newSources = append(ch.newSources, s)
			}
		}
		if ur.Added {
			st.NewEntries++
		} else {
			st.UpdatedEntries++
		}
		if ch.newArtifact {
			st.NewArtifacts++
		}
		if e.sections != nil {
			e.sections[secDataset].dirty.set(merged.Coord.Key())
		}
		changes = append(changes, ch)
	}
	return changes
}

// plannedEdge is one graph edge a shard plan asks the commit phase to
// insert.
type plannedEdge struct {
	from, to string
	attrs    graph.Attrs
}

// plannedGroup is one similar cluster the commit phase connects
// (connectGroup semantics: clique up to PairwiseLimit, hub-and-path beyond).
type plannedGroup struct {
	members []string
	attrs   graph.Attrs
}

// shardPlan is the pure output of one ecosystem's shard phase: every graph
// mutation the shard wants, plus the recluster-scope accounting, with no
// graph access of its own. Plans are committed serially in sorted-ecosystem
// order.
type shardPlan struct {
	eco ecosys.Ecosystem
	err error

	// §III-C dependency edges (forward links from scanned fronts and
	// backward links from waiting importers, in shard-deterministic order).
	depEdges []plannedEdge

	// §III-B similar-family replacement: drop every similar edge incident
	// to dirtyMembers, then connect groups.
	reclustered  bool
	dirtyMembers []string
	groups       []plannedGroup
	partitions   int
	artifacts    int
	dirtyItems   int
}

// applyShardsLocked inserts the batch's nodes (applyNodes) beside the
// parallel shard phase, which plans the per-ecosystem slices without
// reading the graph, and beside the co-existing plan (planCoexistingLocked),
// then commits the resulting plans serially once all have finished: the
// shards in sorted-ecosystem order and the co-existing operations last, so
// the node and edge insertion sequence — and the serialized graph — is
// identical under any GOMAXPROCS. A failed node insertion leaves the shard
// and report-join indexes planned and the graph half-written; either is a
// broken graph invariant.
func (e *Engine) applyShardsLocked(changes []entryChange, newReports []*reports.Report, st *IngestStats) error {
	byEco := make(map[ecosys.Ecosystem][]entryChange)
	for _, ch := range changes {
		eco := ch.entry.Coord.Ecosystem
		byEco[eco] = append(byEco[eco], ch)
	}
	ecos := slices.Sorted(maps.Keys(byEco))

	// Materialize every shard before the fan-out: shardLocked writes the
	// shared shards map on first use, which must not happen from inside
	// the parallel phase.
	for _, eco := range ecos {
		e.shardLocked(eco)
	}

	// Shard phase: each ecosystem's slice plans in parallel. A shard only
	// touches its own ecoShard state (no two goroutines share one), the
	// now-read-only shards map and the read-only scanner/embedder, never
	// the graph applyNodes writes beside it, so the fan-out is race-free;
	// per-shard work is itself deterministic (order-preserving inner maps,
	// sorted partition keys, ID-sorted partition items), so the plans are
	// byte-identical under any worker count. The co-existing plan owns the
	// report-join state (the report corpus and the per-coordinate report
	// index), which no other leg touches; it reads only the co-existing
	// edges of the graph, which applyNodes never writes.
	var (
		plans []*shardPlan
		coex  *coexPlan
	)
	err := parallel.Do(
		func() error {
			if err := e.applyNodes(changes, st); err != nil {
				return fmt.Errorf("core ingest nodes: %w", err)
			}
			return nil
		},
		func() error {
			plans = parallel.Map(len(ecos), func(i int) *shardPlan {
				return e.planShardLocked(ecos[i], byEco[ecos[i]])
			})
			return nil
		},
		func() error {
			coex = e.planCoexistingLocked(newReports, changes)
			return nil
		},
	)
	if err != nil {
		return err
	}

	// Commit phase: serial, sorted-ecosystem order.
	depBefore := e.mg.G.EdgeCount(graph.Dependency)
	simBefore := e.mg.G.EdgeCount(graph.Similar)
	for _, plan := range plans {
		if plan.err != nil {
			return fmt.Errorf("core ingest %s shard: %w", plan.eco, plan.err)
		}
		for _, pe := range plan.depEdges {
			if err := e.mg.G.AddEdge(pe.from, pe.to, graph.Dependency, pe.attrs); err != nil {
				return err
			}
		}
		if err := e.commitSimilarLocked(plan, st); err != nil {
			return err
		}
	}
	st.DependencyDelta = e.mg.G.EdgeCount(graph.Dependency) - depBefore
	st.SimilarDelta = e.mg.G.EdgeCount(graph.Similar) - simBefore
	if err := e.commitCoexistingLocked(coex, st); err != nil {
		return fmt.Errorf("core ingest coexisting: %w", err)
	}
	return nil
}

// planShardLocked runs one ecosystem's shard phase: the §III-C dependency
// leg (planDependencyLocked), then the §III-B similar leg
// (planSimilarLocked), each mutating only the shard's own indexes and
// returning the graph operations for the serial commit.
func (e *Engine) planShardLocked(eco ecosys.Ecosystem, changes []entryChange) *shardPlan {
	sh := e.shardLocked(eco)
	plan := &shardPlan{eco: eco}
	newArts := artifactChanges(changes)
	if plan.depEdges, plan.err = e.planDependencyLocked(sh, changes, newArts); plan.err != nil {
		return plan
	}
	e.planSimilarLocked(sh, plan, newArts)
	return plan
}

func artifactChanges(changes []entryChange) []entryChange {
	out := make([]entryChange, 0, len(changes))
	for _, ch := range changes {
		if ch.newArtifact {
			out = append(out, ch)
		}
	}
	return out
}

package core

// Engine builds MALGRAPH as a long-lived instance that ingests (entries,
// reports) batches as registries and report feeds publish them (§II-B is a
// continuous collection process; a one-shot build is the degenerate
// single-batch case). All four edge families are
// maintained incrementally through persistent indexes:
//
//   - duplicated: per-entry record cliques, appended as sources accumulate.
//   - dependency: a corpus dictionary (name → canonical nodes) plus a
//     reverse import index (imported name → scanned fronts), so a new
//     package links both directions — to the corpus members it imports and
//     from the previously ingested fronts that import *it* — without
//     rescanning anything.
//   - similar: per-artifact tokenize→hash→embed→SimHash products are cached
//     per node; a banded LSH index (textsim.LSHIndex) partitions every
//     ecosystem by verified band-candidate connectivity (shared SimHash band
//     AND cosine ≥ threshold, transitively — family-sized components at any
//     corpus scale), and only the partitions containing changed artifacts
//     re-cluster: their similar edges are dropped surgically
//     (graph.RemoveEdgesIncident) and re-derived, while every other
//     partition's clusters and edges are untouched. Each partition is
//     clustered as one K-Means-refined centroid (textsim.ClusterPartition),
//     so appends cost O(dirty partitions), not O(ecosystem).
//   - co-existing: reports are merged into a URL-sorted corpus and into the
//     per-coordinate report index (MalGraph.reportsByPkg, every named
//     coordinate, present in the graph or not); a pair's owner, the
//     URL-smallest report covering it, is its co-existing edge's "report"
//     attr. A wanted package arriving re-joins only the reports that name
//     it; an out-of-order report re-derives only the report groups its
//     packages overlap, repairing first-writer ownership per pair via a
//     surgical graph.RemoveEdge — never the whole edge family.
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
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// Batch is one ingest installment: dataset entries with their per-entry
// source accounting (collect.BatchOf or collect.Resolver.Resolve) plus newly
// published security reports.
type Batch struct {
	Entries []*collect.Entry
	// PerSource is never read: the engine accounts every batch per entry,
	// from Stats. It stays only because the servebench harness sets it.
	PerSource map[sources.ID]collect.SourceStats
	// Stats carries each entry's absolute per-source accounting (see
	// collect.Batch.Stats). The engine adds one Total per newly observed
	// (source, package) pair and applies the delta between each entry's
	// recorded stat and this one — exact under replay, under batches that
	// extend already-known coordinates (the external ingest path), and
	// under any feed/external mix. A batch without Stats (a hand-assembled
	// corpus) carries no accounting.
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
// (see planShard) — each shard mutates only its own indexes and emits a
// pure plan of graph operations, which a serial commit phase applies in
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

// shard returns the ecosystem's shard, creating it on first use.
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
	if b.Stats != nil {
		// Exact per-entry accounting: one Total per newly observed
		// (source, package) pair, and the delta between each entry's
		// recorded stat and the batch's absolute stat. Idempotent under
		// replay (identical stat ⇒ zero delta) and exact when several
		// batches extend the same coordinate.
		for _, ch := range changes {
			e.mg.Dataset.AddTotals(ch.newSources)
			key := ch.entry.Coord.Key()
			if next, ok := b.Stats[key]; ok {
				e.mg.Dataset.ApplyEntryStat(key, next)
			}
		}
	}
	// Shard phase: the batch's per-ecosystem slices plan their dependency
	// and similar updates in parallel (each shard owns its indexes and emits
	// graph operations without touching the graph), the §III-D co-existing
	// join plans its edge operations the same way, and the node and
	// duplicated-clique insertion — the only graph writer until then — runs
	// beside them. The commit phase starts once all are done and applies
	// every plan serially, the shards in sorted-ecosystem order and the
	// co-existing operations last, so the node and edge insertion sequence
	// — and the serialized graph — is identical under any GOMAXPROCS.
	if err := e.applyShardsLocked(changes, b.Reports, &st); err != nil {
		return st, err
	}
	return st, nil
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
			if ur.Added || !containsSource(ur.PrevSources, s) {
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

// applyNodes inserts or refreshes canonical and record nodes and appends the
// duplicated-edge cliques (§III-A).
func (e *Engine) applyNodes(changes []entryChange, st *IngestStats) error {
	before := e.mg.G.EdgeCount(graph.Duplicated)
	for _, ch := range changes {
		en := ch.entry
		id := NodeID(en.Coord)
		attrs := canonicalAttrs(en)
		if ch.isNew {
			if err := e.mg.G.AddNode(id, attrs); err != nil {
				return err
			}
		} else {
			// One pass in key order over the attributes whose value changed,
			// so an unchanged attribute costs no node copy.
			cur, _ := e.mg.G.Node(id)
			keys := make([]string, 0, len(attrs))
			for k, v := range attrs {
				if old, ok := cur.Attrs[k]; !ok || old != v {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := e.mg.G.SetAttr(id, k, attrs[k]); err != nil {
					return err
				}
			}
		}
		for _, s := range ch.newSources {
			recAttrs := graph.Attrs{
				"kind":      "record",
				"name":      en.Coord.Name,
				"version":   en.Coord.Version,
				"ecosystem": en.Coord.Ecosystem.String(),
				"source":    strconv.Itoa(int(s)),
			}
			if en.Artifact != nil {
				recAttrs["hash"] = en.Artifact.Hash()
			}
			if err := e.mg.G.AddNode(RecordNodeID(s, en.Coord), recAttrs); err != nil {
				return err
			}
		}
		if ch.newArtifact && !ch.isNew {
			// Late-arriving artifact: stamp the hash on pre-existing records
			// and drop the entry's duplicated edges so the clique below
			// re-derives them with the hash-confirmed match attr — what a
			// one-shot build of the merged corpus would have produced.
			// Duplicated edges join only the records of one entry, so the
			// edges incident to its records are exactly its clique.
			recIDs := make([]string, len(en.Sources))
			for i, s := range en.Sources {
				recIDs[i] = RecordNodeID(s, en.Coord)
				if err := e.mg.G.SetAttr(recIDs[i], "hash", en.Artifact.Hash()); err != nil {
					return err
				}
			}
			e.mg.G.RemoveEdgesIncident(graph.Duplicated, recIDs)
		}
		if len(en.Sources) >= 2 {
			dupAttrs := graph.Attrs{"match": "name+version"}
			if en.Artifact != nil {
				dupAttrs["match"] = "name+version+hash"
			}
			recIDs := make([]string, len(en.Sources))
			for i, s := range en.Sources {
				recIDs[i] = RecordNodeID(s, en.Coord)
			}
			for i := 0; i < len(recIDs); i++ {
				for j := i + 1; j < len(recIDs); j++ {
					if err := e.mg.G.AddEdge(recIDs[i], recIDs[j], graph.Duplicated, dupAttrs); err != nil {
						return err
					}
				}
			}
		}
	}
	st.DuplicatedDelta = e.mg.G.EdgeCount(graph.Duplicated) - before
	return nil
}

func canonicalAttrs(en *collect.Entry) graph.Attrs {
	attrs := graph.Attrs{
		"kind":      "package",
		"name":      en.Coord.Name,
		"version":   en.Coord.Version,
		"ecosystem": en.Coord.Ecosystem.String(),
		"avail":     en.Availability.String(),
		"occ":       strconv.Itoa(en.OccurrenceCount()),
	}
	if en.Artifact != nil {
		attrs["hash"] = en.Artifact.Hash()
	}
	ids := make([]string, 0, len(en.Sources))
	for _, s := range en.Sources {
		ids = append(ids, strconv.Itoa(int(s)))
	}
	attrs["sources"] = strings.Join(ids, ",")
	return attrs
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
// then commits the resulting plans serially once all have finished. A
// failed node insertion leaves the shard and report-join indexes planned
// and the graph half-written; either is a broken graph invariant.
func (e *Engine) applyShardsLocked(changes []entryChange, newReports []*reports.Report, st *IngestStats) error {
	byEco := make(map[ecosys.Ecosystem][]entryChange)
	for _, ch := range changes {
		eco := ch.entry.Coord.Ecosystem
		byEco[eco] = append(byEco[eco], ch)
	}
	ecos := make([]ecosys.Ecosystem, 0, len(byEco))
	for eco := range byEco {
		ecos = append(ecos, eco)
	}
	sort.Slice(ecos, func(i, j int) bool { return ecos[i] < ecos[j] })

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
		if !plan.reclustered {
			continue
		}
		// Clusters never span partitions, so every stale similar edge is
		// incident to a dirty partition member; drop exactly those, leaving
		// all other partitions' edges (and adjacency indexes) untouched.
		e.mg.G.RemoveEdgesIncident(graph.Similar, plan.dirtyMembers)
		for _, grp := range plan.groups {
			if err := e.mg.connectGroup(grp.members, graph.Similar, grp.attrs, e.cfg.PairwiseLimit); err != nil {
				return err
			}
		}
		st.Reclustered = append(st.Reclustered, plan.eco)
		st.PartitionsReclustered += plan.partitions
		st.ArtifactsReclustered += plan.artifacts
		st.DirtyEcoItems += plan.dirtyItems
	}
	st.DependencyDelta = e.mg.G.EdgeCount(graph.Dependency) - depBefore
	st.SimilarDelta = e.mg.G.EdgeCount(graph.Similar) - simBefore
	if err := e.commitCoexistingLocked(coex, st); err != nil {
		return fmt.Errorf("core ingest coexisting: %w", err)
	}
	return nil
}

// planShard runs one ecosystem's shard phase: grow the corpus dictionary,
// scan and link dependencies (§III-C), embed and re-cluster the dirty LSH
// partitions (§III-B) — mutating only the shard's own indexes and returning
// the graph operations for the serial commit.
func (e *Engine) planShardLocked(eco ecosys.Ecosystem, changes []entryChange) *shardPlan {
	sh := e.shardLocked(eco)
	plan := &shardPlan{eco: eco}

	// Dependency 1: grow the corpus dictionary with every new entry
	// (missing packages are legitimate dependency targets — names survive
	// takedown).
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		name := ch.entry.Coord.Name
		sh.byName[name] = append(sh.byName[name], NodeID(ch.entry.Coord))
	}
	// Dependency 2: scan new artifacts (parallel, order-preserving) and
	// link forward.
	newArts := artifactChanges(changes)
	type scanResult struct {
		deps []string
		err  error
	}
	scans := parallel.Map(len(newArts), func(i int) scanResult {
		deps, err := e.scanner.Dependencies(newArts[i].entry.Artifact)
		return scanResult{deps: deps, err: err}
	})
	for i, ch := range newArts {
		if scans[i].err != nil {
			plan.err = fmt.Errorf("dep scan %s: %w", ch.entry.Coord, scans[i].err)
			return plan
		}
		front := NodeID(ch.entry.Coord)
		for _, dep := range scans[i].deps {
			sh.importers[dep] = append(sh.importers[dep], front)
			for _, target := range sh.byName[dep] {
				if target == front {
					continue
				}
				plan.depEdges = append(plan.depEdges, plannedEdge{front, target, graph.Attrs{"dep": dep}})
			}
		}
	}
	// Dependency 3: link backward — earlier fronts waiting for a new name.
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		name := ch.entry.Coord.Name
		target := NodeID(ch.entry.Coord)
		for _, front := range sh.importers[name] {
			if front == target {
				continue
			}
			plan.depEdges = append(plan.depEdges, plannedEdge{front, target, graph.Attrs{"dep": name}})
		}
	}

	// Similar: embed the new artifacts with the identical per-artifact
	// pipeline to a one-shot build — one HashSource pass per artifact over
	// its merged source, its stream shared between embedding and
	// fingerprint, the merged bytes and every other buffer recycled per
	// worker.
	type scratch struct {
		merged []byte
		hashed []textsim.TokenHash
		embed  textsim.EmbedBuffer
	}
	var pool sync.Pool
	items := parallel.Map(len(newArts), func(i int) textsim.Item {
		en := newArts[i].entry
		sc, _ := pool.Get().(*scratch)
		if sc == nil {
			sc = &scratch{}
		}
		defer pool.Put(sc)
		sc.merged = en.Artifact.AppendMergedSource(sc.merged[:0])
		sc.hashed = textsim.HashSource(sc.hashed, sc.merged)
		return textsim.Item{
			ID: NodeID(en.Coord),
			// The zero-tail-trimmed vector keeps the clustering kernels
			// scanning only occupied dimensions (most artifacts fill one
			// snippet slot).
			Vector: e.embedder.EmbedHashed(sc.hashed, &sc.embed),
			Hash:   textsim.SimHashHashed(sc.hashed),
		}
	})
	for _, it := range items {
		sh.lsh.Add(it.ID, it.Hash, it.Vector)
	}
	if len(items) == 0 {
		return plan
	}
	// Resolve the dirty partitions: where the new items landed after every
	// merge this batch caused. A partition a merge absorbed has its members
	// inside one of these (the merge was bridged by a new item), so dropping
	// the dirty members' similar edges drops its old cluster too.
	seen := make(map[string]bool)
	keys := make([]string, 0, len(items))
	for _, it := range items {
		key, ok := sh.lsh.Root(it.ID)
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	sort.Strings(keys)
	parts := make([][]textsim.Item, len(keys))
	for i, key := range keys {
		members := sh.lsh.Members(key)
		parts[i] = make([]textsim.Item, 0, len(members))
		for _, id := range members {
			it, _ := sh.lsh.Item(id)
			parts[i] = append(parts[i], it)
		}
		plan.dirtyMembers = append(plan.dirtyMembers, members...)
	}
	// Cluster the dirty partitions concurrently. A partition's items are
	// sorted by node ID — content-derived, so any batch order and a one-shot
	// build compute an identical cluster per partition.
	type result struct {
		c  textsim.Cluster
		ok bool
	}
	res := parallel.Map(len(parts), func(i int) result {
		c, ok := textsim.ClusterPartition(parts[i], e.cfg.Cluster)
		return result{c, ok}
	})
	for i, key := range keys {
		if !res[i].ok {
			continue
		}
		plan.groups = append(plan.groups, plannedGroup{
			members: res[i].c.Members,
			attrs: graph.Attrs{
				// Labels are partition-scoped so an untouched partition's
				// edge attrs stay valid verbatim across appends; a
				// partition holds at most one cluster, index 0.
				"cluster":    key + "#0",
				"silhouette": fmt.Sprintf("%.3f", res[i].c.Silhouette),
			},
		})
	}
	plan.reclustered = true
	plan.partitions = len(keys)
	plan.artifacts = len(plan.dirtyMembers)
	plan.dirtyItems = sh.lsh.Len()
	return plan
}

// coexPlan is the §III-D co-existing join of one batch, planned with no
// graph write: the report index is already updated, and the commit replays
// the graph operations in the order a serial join issued them — first one
// RemoveEdgesIncident over hubMembers, then each pair's repair RemoveEdge
// and AddEdge in order — along with the stage's accounting.
type coexPlan struct {
	hubMembers []string
	pairs      []coexPair

	// claimed holds every pair (endpoints sorted) this batch has claimed.
	// Reports join in URL order, so a claimed pair belongs to a URL no
	// larger than the joining one.
	claimed map[[2]string]bool

	newReports, duplicates, conflicts int
	rejoined, repairs                 int
	scoped                            bool
}

// coexPair is one co-existing edge the commit inserts. repair marks a pair
// a larger-URL report owned: its edge is removed first, then re-inserted
// with this report's attrs. Every pair of one report shares its attrs map.
type coexPair struct {
	a, b   string
	attrs  graph.Attrs
	repair bool
}

// planCoexistingLocked merges new reports and maintains the §III-D
// report-join stage through the per-coordinate report index
// (MalGraph.reportsByPkg) and the pair owners the co-existing edges hold,
// emitting the graph operations for commitCoexistingLocked. Both former
// corpus-wide triggers are scoped:
//
//   - A newly ingested package some report was waiting for re-joins exactly
//     the reports its index list holds — their cliques gain the new
//     member's pairs, everything else is untouched.
//   - A late report (URL inside the ingested range) joins like any other;
//     pairs it covers that a larger-URL report currently owns are repaired
//     edge-by-edge (graph.RemoveEdge + re-insert with the smaller-URL
//     attrs), reproducing the one-shot URL-ordered join's first-writer
//     outcome.
//   - The only non-monotone case: a re-joined group that exceeds
//     PairwiseLimit emits a hub-and-path pair set that *changes shape* as
//     members arrive, so its members' co-existing edges are dropped
//     (graph.RemoveEdgesIncident, O(group degree)) and every report
//     overlapping those members re-joins — still scoped to the touched
//     groups.
//
// It runs beside applyNodes, so a package counts as present when the
// merged dataset holds it (presentMembers), never by asking the graph. Of
// the graph it reads only the co-existing edges, which only its own commit
// writes.
func (e *Engine) planCoexistingLocked(newReports []*reports.Report, changes []entryChange) *coexPlan {
	cp := &coexPlan{claimed: make(map[[2]string]bool)}

	// Wanted-package trigger: previously joined reports whose member set
	// grows this batch. The index is read before the batch's own reports
	// enter it, so the set holds only reports that genuinely need a
	// re-join — fresh reports are joined in full below anyway.
	rejoin := make(map[string]*reports.Report)
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		for _, rep := range e.mg.ReportsByPackage(NodeID(ch.entry.Coord)) {
			rejoin[rep.URL] = rep
		}
	}

	// Merge fresh reports, splitting the in-order tail (URLs past the whole
	// ingested corpus — the steady-state feed shape) from late arrivals.
	var tail, late []*reports.Report
	fresh := make(map[string]*reports.Report)
	maxURL := ""
	if n := len(e.mg.Reports); n > 0 {
		maxURL = e.mg.Reports[n-1].URL
	}
	for _, rep := range newReports {
		if rep == nil {
			continue
		}
		if prev := cmp.Or(fresh[rep.URL], reportWithURL(e.mg.Reports, rep.URL)); prev != nil {
			// The corpus keeps the first crawl of a URL; surface the drop —
			// and whether the re-crawl's content differed — instead of
			// losing it without a trace.
			cp.duplicates++
			if !reportContentEqual(prev, rep) {
				cp.conflicts++
			}
			continue
		}
		fresh[rep.URL] = rep
		if e.sections != nil {
			e.sections[secReports].dirty.set(rep.URL)
		}
		// Every named coordinate is indexed, observed or not: its list is
		// what a later wanted-package arrival re-joins.
		for _, coord := range rep.Packages {
			e.indexReportForPackage(NodeID(coord), rep)
		}
		if rep.URL <= maxURL {
			late = append(late, rep)
		} else {
			tail = append(tail, rep)
		}
	}
	cp.newReports = len(tail) + len(late)
	sortReportsByURL(tail)
	sortReportsByURL(late)
	e.mg.Reports = mergeReportCorpus(e.mg.Reports, late, tail)

	// Hub-and-path closure: a grown group beyond PairwiseLimit re-derives
	// its pair set non-monotonically (the path through the sorted member
	// list changes shape), so its members' edges must be replaced and every
	// report naming any of those members re-joined. Member sets resolved
	// here are memoized for the join pass below.
	membersOf := make(map[string][]string, len(rejoin))
	for url, rep := range rejoin {
		m := e.presentMembers(rep)
		membersOf[url] = m
		if len(m) > e.cfg.PairwiseLimit {
			cp.hubMembers = append(cp.hubMembers, m...)
		}
	}
	if len(cp.hubMembers) > 0 {
		sort.Strings(cp.hubMembers)
		cp.hubMembers = uniqueStrings(cp.hubMembers)
		for _, id := range cp.hubMembers {
			for _, rep := range e.mg.ReportsByPackage(id) {
				if fresh[rep.URL] == nil {
					rejoin[rep.URL] = rep
				}
			}
		}
	}

	cp.rejoined = len(rejoin)
	joinList := make([]*reports.Report, 0, len(rejoin)+len(tail)+len(late))
	for _, rep := range rejoin {
		joinList = append(joinList, rep)
	}
	joinList = append(joinList, tail...)
	joinList = append(joinList, late...)
	sortReportsByURL(joinList)
	for _, rep := range joinList {
		e.planJoinLocked(cp, rep, membersOf[rep.URL])
	}
	cp.scoped = cp.rejoined > 0 || len(late) > 0
	return cp
}

// commitCoexistingLocked applies a co-existing plan's graph operations in
// order and records the stage's accounting.
func (e *Engine) commitCoexistingLocked(cp *coexPlan, st *IngestStats) error {
	before := e.mg.G.EdgeCount(graph.Coexisting)
	st.NewReports = cp.newReports
	st.DuplicateReports = cp.duplicates
	st.DuplicateReportConflicts = cp.conflicts
	st.ReportsRejoined = cp.rejoined
	st.CoexistingScoped = cp.scoped
	st.CoexistingEdgesReplaced = cp.repairs
	if len(cp.hubMembers) > 0 {
		st.CoexistingEdgesReplaced += e.mg.G.RemoveEdgesIncident(graph.Coexisting, cp.hubMembers)
	}
	for _, p := range cp.pairs {
		if p.repair {
			e.mg.G.RemoveEdge(p.a, p.b, graph.Coexisting)
		}
		if err := e.mg.G.AddEdge(p.a, p.b, graph.Coexisting, p.attrs); err != nil {
			return err
		}
	}
	st.CoexistingDelta = e.mg.G.EdgeCount(graph.Coexisting) - before
	return nil
}

// planJoinLocked joins one report into the co-existing family: the report
// claims every pair it emits and is the URL-smallest cover of — repairing
// attrs a larger-URL report wrote first, exactly the outcome of a one-shot
// build's URL-ordered join. A pair's owner is the report its co-existing
// edge names, unless this batch claimed the pair or its commit drops the
// edge first (an endpoint in cp.hubMembers). Re-joining an already joined report adds no pair beyond those
// its grown member set added. members may carry a pre-resolved
// presentMembers result (nil resolves it here).
func (e *Engine) planJoinLocked(cp *coexPlan, rep *reports.Report, members []string) {
	if members == nil {
		members = e.presentMembers(rep)
	}
	if len(members) < 2 {
		return
	}
	attrs := graph.Attrs{"report": rep.URL}
	// emit never fails, so neither does pairwise.
	_ = pairwise(members, e.cfg.PairwiseLimit, func(a, b string) error {
		key := [2]string{min(a, b), max(a, b)}
		if cp.claimed[key] {
			return nil
		}
		repair := false
		_, aDropped := slices.BinarySearch(cp.hubMembers, a)
		_, bDropped := slices.BinarySearch(cp.hubMembers, b)
		if !aDropped && !bDropped {
			if owner, owned := e.mg.G.EdgeAttrs(a, b, graph.Coexisting); owned {
				if owner["report"] <= rep.URL {
					return nil
				}
				// First-writer ownership repair: this report's URL sorts
				// below the current owner's, so one-shot joining would have
				// written its attrs. Replace exactly this edge.
				repair = true
				cp.repairs++
			}
		}
		cp.claimed[key] = true
		cp.pairs = append(cp.pairs, coexPair{a: a, b: b, attrs: attrs, repair: repair})
		return nil
	})
}

// presentMembers returns the sorted, deduplicated canonical node IDs of the
// report's named packages present in the merged dataset. Every dataset
// entry has its canonical node once the batch commits, so this is the set
// the graph will hold; it does not read the graph, which applyNodes writes
// while the co-existing plan runs.
func (e *Engine) presentMembers(rep *reports.Report) []string {
	members := make([]string, 0, len(rep.Packages))
	for _, coord := range rep.Packages {
		id := NodeID(coord)
		if _, ok := e.mg.Dataset.EntryByKey(id); ok {
			members = append(members, id)
		}
	}
	sort.Strings(members)
	return uniqueStrings(members)
}

// indexReportForPackage inserts rep into the package's ReportsByPackage list
// at its URL-sorted position, if absent — keeping every list in global URL
// order whatever order reports and packages arrive in. The insert builds a
// fresh slice instead of shifting in place: published views (Engine.View)
// share these lists, so their backing arrays must never be rewritten.
func (e *Engine) indexReportForPackage(id string, rep *reports.Report) {
	lst := e.mg.ReportsByPackage(id)
	i := sort.Search(len(lst), func(i int) bool { return lst[i].URL >= rep.URL })
	if i < len(lst) && lst[i].URL == rep.URL {
		return
	}
	next := make([]*reports.Report, 0, len(lst)+1)
	next = append(next, lst[:i]...)
	next = append(next, rep)
	next = append(next, lst[i:]...)
	e.mg.reportsByPkg.Set(id, next)
}

// reportWithURL returns the report of the URL-sorted corpus reps with the
// given URL, or nil.
func reportWithURL(reps []*reports.Report, url string) *reports.Report {
	i := sort.Search(len(reps), func(i int) bool { return reps[i].URL >= url })
	if i < len(reps) && reps[i].URL == url {
		return reps[i]
	}
	return nil
}

// reportContentEqual compares the fields the join and analyses consume,
// detecting re-crawled documents whose content changed.
func reportContentEqual(a, b *reports.Report) bool {
	if a.Title != b.Title || a.Body != b.Body || len(a.Packages) != len(b.Packages) {
		return false
	}
	for i := range a.Packages {
		if a.Packages[i] != b.Packages[i] {
			return false
		}
	}
	return slices.Equal(a.IoCs.IPs, b.IoCs.IPs) &&
		slices.Equal(a.IoCs.URLs, b.IoCs.URLs) &&
		slices.Equal(a.IoCs.PowerShell, b.IoCs.PowerShell)
}

func sortReportsByURL(reps []*reports.Report) {
	sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
}

// mergeReportCorpus merges late arrivals into the URL-sorted corpus with one
// backwards in-place merge and appends the in-order tail — O(corpus + fresh)
// only when late reports exist, O(tail) in the steady state, replacing the
// former whole-corpus re-sort on every report-bearing batch.
func mergeReportCorpus(corpus, late, tail []*reports.Report) []*reports.Report {
	if len(late) > 0 {
		old := corpus
		corpus = append(corpus, late...)
		i, j := len(old)-1, len(late)-1
		for k := len(corpus) - 1; j >= 0; k-- {
			if i >= 0 && old[i].URL > late[j].URL {
				corpus[k] = old[i]
				i--
			} else {
				corpus[k] = late[j]
				j--
			}
		}
	}
	return append(corpus, tail...)
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

func containsSource(ids []sources.ID, id sources.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

package core

// Engine is the streaming counterpart of Build: a long-lived MALGRAPH
// instance that ingests (entries, reports) batches as registries and report
// feeds publish them (§II-B is a continuous collection process; the one-shot
// Build is the degenerate single-batch case). All four edge families are
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
//     partition's clusters and edges are untouched. Clusters are computed
//     per partition, so appends cost O(dirty partitions), not O(ecosystem).
//   - co-existing: reports are merged into a URL-sorted corpus through an
//     incremental report-join index — a URL-sorted posting list per named
//     coordinate (present in the graph or not) plus a per-pair edge ownership
//     map (owning report URL = the URL-smallest report covering the pair).
//     A wanted package arriving re-joins only the reports that name it; an
//     out-of-order report re-derives only the report groups its packages
//     overlap, repairing first-writer ownership per pair via a surgical
//     graph.RemoveEdge — never the whole edge family.
//
// Determinism contract: ingesting a corpus in any batch partition yields a
// graph whose connected components, edge sets and all downstream analyses
// are identical to a one-shot Build of the merged corpus. (Edge *insertion
// order* — and therefore serialized JSON byte order — may differ between
// partitions; every analysis consumes components, counts or sorted views.)
// The contract holds because every stage either derives a monotone edge set
// (duplicated, dependency) or re-derives the affected family from merged
// state that is itself partition-independent: items enter clustering sorted
// by node ID and reports sorted by URL, exactly the order Build sees.

import (
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
	"malgraph/internal/graph/cow"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/textsim"
	"malgraph/internal/xrand"
)

// Batch is one ingest installment: new dataset entries with their source
// accounting (see collect.Feed) plus newly published security reports.
type Batch struct {
	Entries   []*collect.Entry
	PerSource map[sources.ID]collect.SourceStats
	// Stats carries each entry's absolute per-source accounting (see
	// collect.Batch.Stats). When present, the engine applies exact
	// accounting deltas per entry — correct under replay, under batches
	// that extend already-known coordinates (the external ingest path),
	// and under any feed/external mix. When nil (hand-assembled batches,
	// one-shot Build), the PerSource aggregate is added verbatim whenever
	// the batch changed the dataset.
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
	// Edge deltas by type (coexisting counts the net effect of a rebuild).
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
	// machinery ran; CoexistingRebuilt that the stage fell back to a full
	// re-derivation (only when the scope would have covered most of the
	// corpus — see applyCoexisting).
	ReportsRejoined         int
	CoexistingEdgesReplaced int
	CoexistingScoped        bool
	CoexistingRebuilt       bool
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
	return s.CoexistingRebuilt || s.CoexistingScoped || s.NewReports > 0
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
	// Corpus dictionary (§III-C): name → canonical node IDs, and the name
	// set. Both grow monotonically.
	byName map[string][]string
	corpus map[string]bool
	// Reverse import index: imported name → canonical node IDs of the
	// already-scanned fronts importing it (self-name imports excluded).
	importers map[string][]string
	// importsOf caches each scanned artifact's manifest+source import names.
	importsOf map[string][]string

	// items caches the §III-B per-artifact products, sorted by node ID (the
	// order a one-shot Build clusters in).
	items []textsim.Item
	// flat caches the shard's flattened cluster list between ingests so a
	// dirty batch re-copies only the suffix from the first changed partition
	// key onward instead of rebuilding the whole list (see flattenLocked).
	flat flatClusters
	// lsh partitions the shard's items by verified band-candidate
	// connectivity under cfg.Cluster (LSHBands, Threshold) — the unit of
	// incremental re-clustering. Partition identity is content-derived
	// (canonical key = smallest member node ID), so any batch order
	// reproduces the same partitions.
	lsh *textsim.LSHIndex
	// clustersByPart caches each partition's surviving clusters by its
	// canonical key; flattening the map in key order yields the ecosystem's
	// cluster list exactly as a one-shot build derives it.
	clustersByPart map[string][]textsim.Cluster

	// Segmented-checkpoint dirty state, populated only while the engine has
	// a content store attached (Engine.track non-nil). Each shard is owned
	// by one goroutine during the parallel plan phase, so these need no
	// locking beyond the engine mutex the commit phase already holds.
	newItems     []textsim.Item
	dirtyImports map[string]bool
	dirtyParts   map[string]bool
	delParts     map[string]bool
}

// markImportDirty records that front's import scan changed since the last
// checkpoint. Only called while tracking is enabled.
func (sh *ecoShard) markImportDirty(front string) {
	if sh.dirtyImports == nil {
		sh.dirtyImports = make(map[string]bool)
	}
	sh.dirtyImports[front] = true
}

// markPartSet records a partition cache write; a later delete supersedes it.
func (sh *ecoShard) markPartSet(key string) {
	if sh.dirtyParts == nil {
		sh.dirtyParts = make(map[string]bool)
	}
	sh.dirtyParts[key] = true
	delete(sh.delParts, key)
}

// markPartDel records a partition cache delete; a later write supersedes it.
func (sh *ecoShard) markPartDel(key string) {
	if sh.delParts == nil {
		sh.delParts = make(map[string]bool)
	}
	sh.delParts[key] = true
	delete(sh.dirtyParts, key)
}

func newEcoShard() *ecoShard {
	return &ecoShard{
		byName:         make(map[string][]string),
		corpus:         make(map[string]bool),
		importers:      make(map[string][]string),
		importsOf:      make(map[string][]string),
		clustersByPart: make(map[string][]textsim.Cluster),
	}
}

// Engine maintains MALGRAPH incrementally across Ingest batches.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	mg  *MalGraph

	embedder *textsim.Embedder
	scanner  *depscan.Scanner

	// shards holds the per-ecosystem state (corpus dictionaries, import
	// indexes, clustering caches); see ecoShard. Created on first use.
	// guarded by mu.
	shards map[ecosys.Ecosystem]*ecoShard
	// clusterScratch pools the clustering kernels' buffers across ingests,
	// one Scratch per re-clustering worker.
	clusterScratch sync.Pool

	// Incremental report-join index (§III-D). reportByURL dedupes reports
	// and resolves posting-list URLs back to documents. posting maps every
	// coordinate key any ingested report names — whether or not the package
	// has been observed yet — to the URL-sorted list of reports naming it,
	// so a wanted package arriving re-joins exactly those reports.
	// coexOwner records, per co-existing edge (pair key, endpoints sorted),
	// the URL of the report that owns its attrs: the URL-smallest report
	// covering the pair, i.e. the first writer of a one-shot build's
	// URL-ordered join. All three are persisted in snapshots (v3), so a
	// restored engine's first wanted-package ingest is scoped too.
	reportByURL map[string]*reports.Report // guarded by mu
	posting     map[string][]string        // guarded by mu
	coexOwner   map[string]string          // guarded by mu

	// appliedSeq is the durable ingest sequence stamp: the WAL sequence of
	// the last journaled batch applied to this engine. Snapshots carry it
	// (v4) so recovery replays only the journal suffix the checkpoint does
	// not already contain. The engine itself never bumps it — the pipeline
	// that owns the journal does, via SetAppliedSeq before Snapshot.
	// guarded by mu.
	appliedSeq uint64
	// feedPos is the companion stamp for the simulated feed: how many feed
	// batches the pipeline had ingested when the snapshot was taken. Without
	// it, a checkpoint that truncates the journal would lose the feed cursor
	// (feed records only live in the journal) and a restarted server would
	// re-report every batch as pending. guarded by mu.
	feedPos int

	// Segmented persistence (snapshot v5). When a content store is attached,
	// Snapshot writes a small manifest plus delta chunks into the store —
	// O(changes since the last checkpoint) — instead of re-serialising the
	// corpus; without one, Snapshot keeps emitting the monolithic v4 stream.
	store *castore.Store // guarded by mu
	// track records the dirty keys of every delta-logged section since the
	// last checkpoint; non-nil exactly when store is. guarded by mu.
	track *tracker
	// logs holds each section's durable chunk references (the manifest's
	// pointer lists) plus the accounting the re-base policy reads.
	// guarded by mu.
	logs map[string]*sectionLog
	// artifactRefs caches, per coordinate key, the durable blob holding the
	// entry's artifact — populated only after the blob's segment is fsynced,
	// so a cached ref always resolves. guarded by mu.
	artifactRefs map[string]artifactRef
}

// SetAppliedSeq records the durable ingest sequence the engine's state now
// reflects; Snapshot persists it.
func (e *Engine) SetAppliedSeq(seq uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.appliedSeq = seq
}

// AppliedSeq returns the durable ingest sequence restored from the last
// snapshot (0 for a cold engine): journal records at or below it are
// already part of this engine's state.
func (e *Engine) AppliedSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.appliedSeq
}

// SetFeedPos records the feed cursor (batches ingested) alongside the
// sequence stamp; Snapshot persists it.
func (e *Engine) SetFeedPos(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.feedPos = n
}

// FeedPos returns the feed cursor restored from the last snapshot (0 for a
// cold engine).
func (e *Engine) FeedPos() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feedPos
}

// NewEngine creates an empty engine. Zero-valued config falls back to the
// paper's parameters, as Build does.
func NewEngine(cfg Config) *Engine {
	if cfg.PairwiseLimit <= 0 {
		cfg = DefaultConfig()
	}
	return &Engine{
		cfg: cfg,
		mg: &MalGraph{
			G:               graph.New(),
			Dataset:         collect.NewResult(time.Time{}),
			SimilarClusters: make(map[ecosys.Ecosystem][]textsim.Cluster),
		},
		embedder:    textsim.NewEmbedder(cfg.Embed),
		scanner:     depscan.NewScanner(),
		shards:      make(map[ecosys.Ecosystem]*ecoShard),
		reportByURL: make(map[string]*reports.Report),
		posting:     make(map[string][]string),
		coexOwner:   make(map[string]string),
	}
}

// shard returns the ecosystem's shard, creating it on first use.
func (e *Engine) shardLocked(eco ecosys.Ecosystem) *ecoShard {
	sh := e.shards[eco]
	if sh == nil {
		sh = newEcoShard()
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
// writer provably never mutates them in place: dataset entries (Upsert
// replaces changed entries), reports (first crawl wins), per-ecosystem
// cluster slices (re-clustering replaces the flat list wholesale) and
// per-package report lists (indexReportForPackage copy-inserts). What
// still grows with the corpus is those table copies and two pointer-slice
// copies — the dataset's Entries and the report corpus — paid once per
// publish by the writer.
func (e *Engine) View() *MalGraph {
	e.mu.Lock()
	defer e.mu.Unlock()
	mg := e.mg
	v := &MalGraph{
		G:               mg.G.Clone(),
		Dataset:         mg.Dataset.View(),
		Reports:         make([]*reports.Report, len(mg.Reports)),
		SimilarClusters: make(map[ecosys.Ecosystem][]textsim.Cluster, len(mg.SimilarClusters)),
		reportsByPkg:    mg.reportsByPkg.Clone(),
		subgraphs:       &subgraphMemo{},
	}
	copy(v.Reports, mg.Reports)
	for eco, cs := range mg.SimilarClusters {
		v.SimilarClusters[eco] = cs
	}
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
		}
		for _, ch := range changes {
			key := ch.entry.Coord.Key()
			if next, ok := b.Stats[key]; ok {
				e.mg.Dataset.ApplyEntryStat(key, next)
			}
		}
	} else if st.NewEntries > 0 || st.UpdatedEntries > 0 {
		// Legacy aggregate path: a batch's PerSource is the accounting its
		// entries contributed to the collection. Batches are disjoint under
		// the partition contract, so the stats apply exactly once — when
		// the batch actually introduces entries. A fully replayed batch
		// (warm-restart feed drain) merges zero entries and must not
		// re-add its accounting.
		e.mg.Dataset.AddSourceStats(b.PerSource)
	}
	if err := e.applyNodes(changes, &st); err != nil {
		return st, fmt.Errorf("core ingest nodes: %w", err)
	}
	// Shard phase: the batch's per-ecosystem slices plan their dependency
	// and similar updates in parallel (each shard owns its indexes and emits
	// graph operations without touching the graph); the commit phase then
	// applies every plan serially in sorted-ecosystem order, so the edge
	// insertion sequence — and the serialized graph — is identical under any
	// GOMAXPROCS.
	if err := e.applyShardsLocked(changes, &st); err != nil {
		return st, err
	}
	if err := e.applyCoexistingLocked(b.Reports, changes, &st); err != nil {
		return st, fmt.Errorf("core ingest coexisting: %w", err)
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
		if e.track != nil {
			e.track.entries[merged.Coord.Key()] = true
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
			for k, v := range attrs {
				if err := e.mg.G.SetAttr(id, k, v); err != nil {
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
			for _, s := range en.Sources {
				if err := e.mg.G.SetAttr(RecordNodeID(s, en.Coord), "hash", en.Artifact.Hash()); err != nil {
					return err
				}
			}
			suffix := "|" + en.Coord.Key()
			e.mg.G.RemoveEdgesWhere(graph.Duplicated, func(ed graph.Edge) bool {
				return strings.HasSuffix(ed.From, suffix)
			})
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
	// to dirtyMembers, then connect groups. clusters is the ecosystem's
	// re-derived flat cluster list.
	reclustered  bool
	dirtyMembers []string
	groups       []plannedGroup
	clusters     []textsim.Cluster
	partitions   int
	artifacts    int
	dirtyItems   int
}

// applyShards runs the batch's per-ecosystem slices through the parallel
// shard phase and commits the resulting plans serially.
func (e *Engine) applyShardsLocked(changes []entryChange, st *IngestStats) error {
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
	// now-read-only shards map and the read-only scanner/embedder, so the
	// fan-out is race-free; per-shard work is itself deterministic
	// (order-preserving inner maps, sorted partition keys, content-derived
	// RNG streams), so the plans are byte-identical under any worker count.
	plans := parallel.Map(len(ecos), func(i int) *shardPlan {
		return e.planShardLocked(ecos[i], byEco[ecos[i]])
	})

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
		e.mg.SimilarClusters[plan.eco] = plan.clusters
		st.Reclustered = append(st.Reclustered, plan.eco)
		st.PartitionsReclustered += plan.partitions
		st.ArtifactsReclustered += plan.artifacts
		st.DirtyEcoItems += plan.dirtyItems
	}
	st.DependencyDelta = e.mg.G.EdgeCount(graph.Dependency) - depBefore
	st.SimilarDelta = e.mg.G.EdgeCount(graph.Similar) - simBefore
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
		sh.corpus[name] = true
	}
	// Dependency 2: scan new artifacts (parallel, order-preserving) and
	// link forward.
	newArts := artifactChanges(changes)
	type scanResult struct {
		deps []string
		err  error
	}
	scans := parallel.Map(len(newArts), func(i int) scanResult {
		en := newArts[i].entry
		manifest, err := e.scanner.FromManifest(en.Artifact)
		if err != nil {
			return scanResult{err: err}
		}
		imported := depscan.ExtractImports(en.Artifact)
		seen := make(map[string]bool, len(manifest)+len(imported))
		deps := make([]string, 0, len(manifest)+len(imported))
		for _, list := range [][]string{manifest, imported} {
			for _, d := range list {
				if d == en.Coord.Name || seen[d] {
					continue
				}
				seen[d] = true
				deps = append(deps, d)
			}
		}
		sort.Strings(deps)
		return scanResult{deps: deps}
	})
	for i, ch := range newArts {
		if scans[i].err != nil {
			plan.err = fmt.Errorf("dep scan %s: %w", ch.entry.Coord, scans[i].err)
			return plan
		}
		front := NodeID(ch.entry.Coord)
		sh.importsOf[front] = scans[i].deps
		if e.track != nil {
			sh.markImportDirty(front)
		}
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
	// pipeline to a one-shot Build — tokenize once, share the hashed stream
	// between embedding and fingerprint, recycle buffers per worker.
	type scratch struct {
		tokens []string
		hashed []textsim.TokenHash
	}
	var pool sync.Pool
	items := parallel.Map(len(newArts), func(i int) textsim.Item {
		en := newArts[i].entry
		sc, _ := pool.Get().(*scratch)
		if sc == nil {
			sc = &scratch{}
		}
		defer pool.Put(sc)
		sc.tokens = textsim.TokenizeAppend(sc.tokens[:0], en.Artifact.MergedSource())
		sc.hashed = textsim.HashTokens(sc.tokens, sc.hashed)
		return textsim.Item{
			ID: NodeID(en.Coord),
			// Zero-tail trimming keeps the clustering kernels scanning only
			// occupied dimensions (most artifacts fill one snippet slot).
			Vector: textsim.TrimZeroTail(e.embedder.EmbedHashed(sc.hashed)),
			Hash:   textsim.SimHashHashed(sc.hashed),
		}
	})
	// One batched merge: the batch's new items are sorted and spliced into
	// the ID-sorted cache in a single pass instead of an O(items) shift per
	// insertion (the former insertItem loop the ROADMAP flagged).
	sh.items = mergeItems(sh.items, items)
	dirty := make([]string, 0, len(items))
	for _, it := range items {
		if sh.lsh == nil {
			sh.lsh = textsim.NewLSHIndex(e.cfg.Cluster)
		}
		sh.lsh.Add(it.ID, it.Hash, it.Vector)
		dirty = append(dirty, it.ID)
	}
	if e.track != nil {
		sh.newItems = append(sh.newItems, items...)
	}
	if len(dirty) == 0 {
		return plan
	}
	// Resolve the dirty partitions: where the new items landed after every
	// merge this batch caused. A partition key retired by a merge always
	// re-surfaces inside one of these (the merge was bridged by a new item),
	// so dropping its cached clusters loses nothing.
	for _, retiredKey := range sh.lsh.DrainRetired() {
		delete(sh.clustersByPart, retiredKey)
		sh.flat.invalidate(retiredKey)
		if e.track != nil {
			sh.markPartDel(retiredKey)
		}
	}
	type partJob struct {
		key   string
		items []textsim.Item
	}
	seen := make(map[string]bool)
	keys := make([]string, 0, len(dirty))
	for _, id := range dirty {
		key, ok := sh.lsh.Root(id)
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var jobs []partJob
	for _, key := range keys {
		members := sh.lsh.Members(key)
		pitems := make([]textsim.Item, 0, len(members))
		for _, id := range members {
			it, ok := sh.itemAt(id)
			if !ok {
				plan.err = fmt.Errorf("similar: partition %s references unknown item %s", key, id)
				return plan
			}
			pitems = append(pitems, it)
		}
		jobs = append(jobs, partJob{key: key, items: pitems})
		plan.dirtyMembers = append(plan.dirtyMembers, members...)
	}
	// Re-cluster dirty partitions concurrently. Each partition's items are
	// sorted by node ID and its RNG stream is derived from its canonical key
	// — both content-derived, so any batch order (and a one-shot Build)
	// computes identical clusters per partition.
	clustersByJob := parallel.Map(len(jobs), func(i int) []textsim.Cluster {
		sc, _ := e.clusterScratch.Get().(*textsim.Scratch)
		if sc == nil {
			sc = textsim.NewScratch()
		}
		defer e.clusterScratch.Put(sc)
		job := jobs[i]
		rng := xrand.New(e.cfg.Seed).Derive("similar/" + eco.String() + "/" + job.key)
		return textsim.ClusterItemsScratch(job.items, e.cfg.Cluster, rng, sc)
	})
	for i, job := range jobs {
		clusters := clustersByJob[i]
		sh.flat.invalidate(job.key)
		if len(clusters) == 0 {
			delete(sh.clustersByPart, job.key)
			if e.track != nil {
				sh.markPartDel(job.key)
			}
		} else {
			sh.clustersByPart[job.key] = clusters
			if e.track != nil {
				sh.markPartSet(job.key)
			}
		}
		for ci, cluster := range clusters {
			plan.groups = append(plan.groups, plannedGroup{
				members: cluster.Members,
				attrs: graph.Attrs{
					// Labels are partition-scoped so an untouched partition's
					// edge attrs stay valid verbatim across appends.
					"cluster":    job.key + "#" + strconv.Itoa(ci),
					"silhouette": fmt.Sprintf("%.3f", cluster.Silhouette),
				},
			})
		}
	}
	// Re-derive the flat cluster list in canonical partition-key order —
	// the order a one-shot build yields. The incremental flatten reuses the
	// prefix of the previous list before the first changed partition key.
	plan.reclustered = true
	plan.clusters = sh.flat.flatten(sh.clustersByPart)
	plan.partitions = len(jobs)
	plan.artifacts = len(plan.dirtyMembers)
	plan.dirtyItems = len(sh.items)
	return plan
}

// itemAt returns the cached clustering item for a node ID via binary search
// in the shard's ID-sorted item slice.
func (sh *ecoShard) itemAt(id string) (textsim.Item, bool) {
	i := sort.Search(len(sh.items), func(i int) bool { return sh.items[i].ID >= id })
	if i < len(sh.items) && sh.items[i].ID == id {
		return sh.items[i], true
	}
	return textsim.Item{}, false
}

// flatClusters incrementally maintains one ecosystem's flattened cluster
// list in canonical partition-key order. keys mirrors the partition map's
// sorted keys, offsets[i] is key i's first cluster index, and list is the
// flat slice published to SimilarClusters. A dirty batch reuses the prefix
// before the smallest invalidated key (shared backing array, copy-on-append
// so published views stay immutable) and re-flattens only the suffix —
// replacing the former full sort-and-copy per dirty ecosystem.
type flatClusters struct {
	keys    []string
	offsets []int
	list    []textsim.Cluster
	// firstDirty is the smallest partition key invalidated since the last
	// flatten; meaningful only while dirty. ready distinguishes a built
	// cache from the zero value (which must do a full build).
	firstDirty string
	dirty      bool
	ready      bool
}

// invalidate records that the partition's cached clusters changed (set,
// replaced or deleted).
func (f *flatClusters) invalidate(key string) {
	if !f.dirty || key < f.firstDirty {
		f.firstDirty = key
		f.dirty = true
	}
}

// flatten returns the ecosystem's flat cluster list for the current
// partition map, rebuilding only from the first invalidated key onward.
func (f *flatClusters) flatten(parts map[string][]textsim.Cluster) []textsim.Cluster {
	if f.ready && !f.dirty {
		return f.list
	}
	keep := 0
	if f.ready {
		keep = sort.SearchStrings(f.keys, f.firstDirty)
	}
	sufKeys := make([]string, 0, len(parts)-keep)
	for k := range parts {
		if f.ready && k < f.firstDirty {
			continue
		}
		sufKeys = append(sufKeys, k)
	}
	sort.Strings(sufKeys)
	cut := len(f.list)
	if keep < len(f.keys) {
		cut = f.offsets[keep]
	}
	next := f.list[:cut:cut]
	keys := append(f.keys[:keep:keep], sufKeys...)
	offsets := f.offsets[:keep:keep]
	for _, k := range sufKeys {
		offsets = append(offsets, len(next))
		next = append(next, parts[k]...)
	}
	f.keys, f.offsets, f.list = keys, offsets, next
	f.dirty, f.firstDirty, f.ready = false, "", true
	return f.list
}

// flattenClusters serialises a partition→clusters map into one deterministic
// per-ecosystem list, ordered by canonical partition key.
func flattenClusters(parts map[string][]textsim.Cluster) []textsim.Cluster {
	keys := make([]string, 0, len(parts))
	total := 0
	for k, cs := range parts {
		keys = append(keys, k)
		total += len(cs)
	}
	sort.Strings(keys)
	out := make([]textsim.Cluster, 0, total)
	for _, k := range keys {
		out = append(out, parts[k]...)
	}
	return out
}

// fullRejoinThreshold is the report-corpus size below which the full-rebuild
// fallback never triggers: re-joining a handful of reports is cheap either
// way, and small corpora (unit fixtures, early ingest) should exercise the
// scoped machinery, not bypass it.
const fullRejoinThreshold = 64

// applyCoexisting merges new reports and maintains the §III-D report-join
// stage through the incremental join index (posting lists + per-pair
// first-writer ownership). Both former corpus-wide triggers are scoped now:
//
//   - A newly ingested package some report was waiting for re-joins exactly
//     the reports in its posting list — their cliques gain the new member's
//     pairs, everything else is untouched.
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
// A full re-derivation survives only as a fallback when the scoped join list
// would cover more than half of a non-trivial corpus (> fullRejoinThreshold
// reports) — one pass is cheaper than surgical replacement at that point —
// and is reported via IngestStats.CoexistingRebuilt.
func (e *Engine) applyCoexistingLocked(newReports []*reports.Report, changes []entryChange, st *IngestStats) error {
	before := e.mg.G.EdgeCount(graph.Coexisting)

	// Wanted-package trigger: previously joined reports whose member set
	// grows this batch. Posting lists are read before the batch's own
	// reports merge into them, so the set holds only reports that genuinely
	// need a re-join — fresh reports are joined in full below anyway.
	rejoin := make(map[string]bool)
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		for _, url := range e.posting[NodeID(ch.entry.Coord)] {
			rejoin[url] = true
		}
	}

	// Merge fresh reports, splitting the in-order tail (URLs past the whole
	// ingested corpus — the steady-state feed shape) from late arrivals.
	var tail, late []*reports.Report
	fresh := make(map[string]bool)
	maxURL := ""
	if n := len(e.mg.Reports); n > 0 {
		maxURL = e.mg.Reports[n-1].URL
	}
	for _, rep := range newReports {
		if rep == nil {
			continue
		}
		if prev, seen := e.reportByURL[rep.URL]; seen {
			// The corpus keeps the first crawl of a URL; surface the drop —
			// and whether the re-crawl's content differed — instead of
			// losing it without a trace.
			st.DuplicateReports++
			if !reportContentEqual(prev, rep) {
				st.DuplicateReportConflicts++
			}
			continue
		}
		e.reportByURL[rep.URL] = rep
		fresh[rep.URL] = true
		if e.track != nil {
			e.track.reports[rep.URL] = true
		}
		for _, coord := range rep.Packages {
			e.addPostingLocked(coord.Key(), rep.URL)
		}
		if rep.URL <= maxURL {
			late = append(late, rep)
		} else {
			tail = append(tail, rep)
		}
	}
	st.NewReports = len(tail) + len(late)
	sortReportsByURL(tail)
	sortReportsByURL(late)
	e.mg.Reports = mergeReportCorpus(e.mg.Reports, late, tail)

	// Hub-and-path closure: a grown group beyond PairwiseLimit re-derives
	// its pair set non-monotonically (the path through the sorted member
	// list changes shape), so its members' edges must be replaced and every
	// report naming any of those members re-joined. Member sets resolved
	// here are memoized for the join pass below.
	var hubMembers []string
	membersOf := make(map[string][]string, len(rejoin))
	for url := range rejoin {
		m := e.presentMembers(e.reportByURL[url])
		membersOf[url] = m
		if len(m) > e.cfg.PairwiseLimit {
			hubMembers = append(hubMembers, m...)
		}
	}
	if len(hubMembers) > 0 {
		sort.Strings(hubMembers)
		hubMembers = uniqueStrings(hubMembers)
		for _, id := range hubMembers {
			for _, url := range e.posting[id] {
				if !fresh[url] {
					rejoin[url] = true
				}
			}
		}
	}

	st.ReportsRejoined = len(rejoin)
	joinList := make([]*reports.Report, 0, len(rejoin)+len(tail)+len(late))
	for url := range rejoin {
		joinList = append(joinList, e.reportByURL[url])
	}
	joinList = append(joinList, tail...)
	joinList = append(joinList, late...)
	sortReportsByURL(joinList)

	// Only re-joins and late arrivals count toward the fallback trigger:
	// in-order tail reports can never repair ownership or drop edges, so a
	// bulk in-order load stays on the O(new) append path however large.
	if total := len(e.mg.Reports); total > fullRejoinThreshold && (len(rejoin)+len(late))*2 > total {
		// Fallback: the scope covers most of the corpus — one full
		// URL-ordered re-derivation is cheaper than surgical replacement.
		// The wholesale wipe is signalled by CoexistingRebuilt, not counted
		// in CoexistingEdgesReplaced (which tracks surgical replacements).
		e.mg.G.RemoveEdgesWhere(graph.Coexisting, func(graph.Edge) bool { return true })
		e.mg.reportsByPkg = cow.Map[[]*reports.Report]{}
		e.coexOwner = make(map[string]string, len(e.coexOwner))
		if e.track != nil {
			e.track.rebasePairs()
		}
		for _, rep := range e.mg.Reports {
			if err := e.joinReportLocked(rep, nil, st); err != nil {
				return err
			}
		}
		st.CoexistingRebuilt = true
		st.CoexistingDelta = e.mg.G.EdgeCount(graph.Coexisting) - before
		return nil
	}

	if len(hubMembers) > 0 {
		// Drop the grown hub-and-path groups' edges and forget their pair
		// ownership; the URL-ordered re-join below re-derives both.
		for _, id := range hubMembers {
			for _, nb := range e.mg.G.Neighbors(id, graph.Coexisting) {
				pk := coexPairKey(id, nb)
				delete(e.coexOwner, pk)
				if e.track != nil {
					e.track.pairDel(pk)
				}
			}
		}
		st.CoexistingEdgesReplaced += e.mg.G.RemoveEdgesIncident(graph.Coexisting, hubMembers)
	}
	for _, rep := range joinList {
		if err := e.joinReportLocked(rep, membersOf[rep.URL], st); err != nil {
			return err
		}
	}
	st.CoexistingScoped = st.ReportsRejoined > 0 || len(late) > 0
	st.CoexistingDelta = e.mg.G.EdgeCount(graph.Coexisting) - before
	return nil
}

// joinReport joins one report into the co-existing family: its present
// members' ReportsByPackage lists gain the report (idempotently, at the
// URL-sorted position) and the report claims every pair it emits and is the
// URL-smallest cover of — repairing attrs a larger-URL report wrote first,
// exactly the outcome of a one-shot build's URL-ordered join. Re-joining an
// already joined report is a no-op beyond the pairs its grown member set
// added. members may carry a pre-resolved presentMembers result (nil
// resolves it here).
func (e *Engine) joinReportLocked(rep *reports.Report, members []string, st *IngestStats) error {
	if members == nil {
		members = e.presentMembers(rep)
	}
	for _, id := range members {
		e.indexReportForPackage(id, rep)
	}
	if len(members) < 2 {
		return nil
	}
	attrs := graph.Attrs{"report": rep.URL}
	return pairwise(members, e.cfg.PairwiseLimit, func(a, b string) error {
		pk := coexPairKey(a, b)
		if owner, ok := e.coexOwner[pk]; ok {
			if owner <= rep.URL {
				return nil
			}
			// First-writer ownership repair: this report's URL sorts below
			// the current owner's, so one-shot joining would have written
			// its attrs. Replace exactly this edge.
			e.mg.G.RemoveEdge(a, b, graph.Coexisting)
			st.CoexistingEdgesReplaced++
		}
		e.coexOwner[pk] = rep.URL
		if e.track != nil {
			e.track.pairSet(pk)
		}
		return e.mg.G.AddEdge(a, b, graph.Coexisting, attrs)
	})
}

// presentMembers returns the sorted, deduplicated canonical node IDs of the
// report's named packages currently present in the graph.
func (e *Engine) presentMembers(rep *reports.Report) []string {
	members := make([]string, 0, len(rep.Packages))
	for _, coord := range rep.Packages {
		id := NodeID(coord)
		if _, ok := e.mg.G.Node(id); ok {
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

// addPosting inserts url into the coordinate's URL-sorted posting list, if
// absent. Coordinates never observed yet get lists too — that is the whole
// point: the list is what a later wanted-package arrival re-joins.
func (e *Engine) addPostingLocked(key, url string) {
	lst := e.posting[key]
	i, found := slices.BinarySearch(lst, url)
	if found {
		return
	}
	e.posting[key] = slices.Insert(lst, i, url)
}

// coexPairKey canonicalises an undirected co-existing pair of canonical node
// IDs ('|' cannot appear in a coordinate key).
func coexPairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
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

// mergeItems splices a batch of new items into the ID-sorted cache with one
// backwards merge — O(cache + batch) total, replacing the former per-item
// binary-search-and-shift whose worst case was O(cache) per insertion. Items
// sharing an ID with a cached one replace it in place (defensive; artifacts
// are immutable once ingested).
func mergeItems(items []textsim.Item, batch []textsim.Item) []textsim.Item {
	if len(batch) == 0 {
		return items
	}
	add := make([]textsim.Item, len(batch))
	copy(add, batch)
	sort.Slice(add, func(i, j int) bool { return add[i].ID < add[j].ID })
	fresh := add[:0]
	for _, it := range add {
		if n := len(fresh); n > 0 && fresh[n-1].ID == it.ID {
			fresh[n-1] = it // duplicate within the batch: last wins
			continue
		}
		if i := sort.Search(len(items), func(i int) bool { return items[i].ID >= it.ID }); i < len(items) && items[i].ID == it.ID {
			items[i] = it // already cached: replace, nothing to splice
			continue
		}
		fresh = append(fresh, it)
	}
	if len(fresh) == 0 {
		return items
	}
	old := items
	items = append(items, fresh...)
	i, j := len(old)-1, len(fresh)-1
	for k := len(items) - 1; j >= 0; k-- {
		if i >= 0 && old[i].ID > fresh[j].ID {
			items[k] = old[i]
			i--
		} else {
			items[k] = fresh[j]
			j--
		}
	}
	return items
}

func containsSource(ids []sources.ID, id sources.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

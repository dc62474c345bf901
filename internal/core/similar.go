package core

// The similar relation (§III-B): artifacts whose code embeds close together
// are clustered, and each cluster's members are linked. The per-artifact
// tokenize→hash→embed→SimHash products are cached per node; a banded LSH
// index (textsim.LSHIndex) partitions every ecosystem by verified
// band-candidate connectivity (shared SimHash band AND cosine ≥ threshold,
// transitively — family-sized components at any corpus scale), and only the
// partitions containing changed artifacts re-cluster: their similar edges
// are dropped surgically (graph.RemoveEdgesIncident) and re-derived, while
// every other partition's clusters and edges are untouched. Each partition
// is clustered as one K-Means-refined centroid (textsim.ClusterPartition),
// so appends cost O(dirty partitions), not O(ecosystem).

import (
	"fmt"
	"sort"
	"sync"

	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/textsim"
)

// planSimilarLocked runs one shard's §III-B leg: embed the new artifacts,
// insert them into the shard's LSH index and cluster the dirty partitions,
// filling plan's similar-family replacement and recluster scope.
func (e *Engine) planSimilarLocked(sh *ecoShard, plan *shardPlan, newArts []entryChange) {
	// Embed the new artifacts with the identical per-artifact
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
		return
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
}

// commitSimilarLocked replaces the similar edges of a shard plan's dirty
// partitions with its clusters' edges and records the recluster scope.
func (e *Engine) commitSimilarLocked(plan *shardPlan, st *IngestStats) error {
	if !plan.reclustered {
		return nil
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
	return nil
}

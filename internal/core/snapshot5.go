package core

// Snapshot v5: segmented delta checkpoints, the only format an engine
// writes. A store-attached engine splits persistence into a small manifest
// (written to the caller's stream, which owns the atomic-rename and
// WAL-truncation contracts) and content-addressed chunks in a
// castore.Store. Each persisted section — dataset entries, graph, clustering
// items, import caches, partition caches, reports, pair ownership — is a
// log of chunks: a chunk either re-bases the section (full re-encode) or
// applies a delta of key sets/deletes recorded by the engine's dirty
// tracking. The manifest holds only the ordered chunk references plus the
// genuinely small inline state (config, posting lists, sequence stamps), so
// checkpoint cost is O(changes since the last checkpoint), not O(corpus).
//
// Chunks, item values and artifact blobs are binary (chunkcodec.go), so a
// restore decodes them by slicing; entry records, reports, imports,
// partitions and pair owners keep JSON values inside the binary kv frame.
// JSON chunks an earlier build wrote are read-only: they restore, binary
// deltas append to their chains, and a section's next re-base drops them.
// The manifest itself stays JSON and version 5.
//
// Durability ordering: the chunk segment is appended — and fsynced — before
// a single manifest byte is written, so a manifest that gets published by
// the caller's rename can always resolve its references; a crash in between
// leaves only unreferenced blobs, which compaction collects.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/textsim"
)

// snapshotVersionSegmented is the manifest format version.
const snapshotVersionSegmented = 5

// manifestSnapshot is the v5 wire format: inline small state plus, per
// section, the ordered chunk references that reconstruct it.
type manifestSnapshot struct {
	Version    int                  `json:"version"`
	Config     Config               `json:"config"`
	Header     collect.ResultHeader `json:"datasetHeader"`
	Posting    map[string][]string  `json:"posting"`
	AppliedSeq uint64               `json:"appliedSeq,omitempty"`
	FeedPos    int                  `json:"feedPos,omitempty"`
	Sections   map[string][]string  `json:"sections"`
}

// kvChunk is one delta of a keyed section: Set writes (or overwrites) keys,
// Del removes them. Chunks apply in manifest order; within one chunk the two
// are disjoint by construction. Snapshot writes it as a binary kv frame
// (encodeKVChunk); the JSON tags describe the legacy chunks that stay
// readable.
type kvChunk struct {
	Set map[string]json.RawMessage `json:"set,omitempty"`
	Del []string                   `json:"del,omitempty"`
}

// graphChunk is one step of the graph log: either a full re-base (Reset
// is the whole graph) or the journaled operations since the previous
// chunk. Snapshot writes it binary (encodeGraphChunk); the JSON tags
// describe the legacy chunks that stay readable.
type graphChunk struct {
	Reset *graph.Persisted `json:"reset,omitempty"`
	Ops   []graph.Op       `json:"ops,omitempty"`
}

// ecoKey joins an ecosystem name and an inner key for sections whose keys
// are only unique per ecosystem (items, partitions). NUL cannot appear in
// node IDs or partition keys.
func ecoKey(eco, inner string) string { return eco + "\x00" + inner }

func splitEcoKey(key string) (eco, inner string, ok bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// pendingChunk is one chunk built but not yet durable; the in-memory
// section logs are only updated after the whole segment fsyncs and the
// manifest encodes, so a failed checkpoint leaves the dirty state intact
// for the next attempt.
type pendingChunk struct {
	section string
	key     string // "" for an empty re-base (clears the section's refs)
	keys    int
	rebase  bool
}

// Snapshot writes a v5 checkpoint, the only format an engine writes: delta
// chunks and new artifact blobs into the attached store, the manifest to w,
// at O(changes since the last checkpoint). Without a store (AttachStore) it
// errors.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return errors.New("snapshot: no content store attached (AttachStore)")
	}
	var blobs []castore.Blob
	var chunks []pendingChunk
	newArtRefs := make(map[string]artifactRef)

	addKV := func(section string, set map[string]json.RawMessage, del []string, rebase bool) error {
		if len(set) == 0 && len(del) == 0 {
			if rebase {
				// The section re-based to empty: the manifest must drop the
				// old refs even though there is no chunk to write.
				chunks = append(chunks, pendingChunk{section: section, rebase: true})
			}
			return nil
		}
		data := encodeKVChunk(kvChunk{Set: set, Del: del})
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{section, key, len(set) + len(del), rebase})
		return nil
	}

	// Dataset: dirty coordinate keys re-encode their entries; artifacts go
	// to the store as standalone blobs referenced from the entry records.
	ds := e.mg.Dataset
	dsRebase := e.logs[sectionDataset].rebaseDue(len(ds.Entries))
	var dsKeys []string
	if dsRebase {
		dsKeys = make([]string, 0, len(ds.Entries))
		for _, en := range ds.Entries {
			dsKeys = append(dsKeys, en.Coord.Key())
		}
	} else {
		dsKeys = sortedKeySet(e.track.entries)
	}
	dsSet := make(map[string]json.RawMessage, len(dsKeys))
	for _, key := range dsKeys {
		en, ok := ds.EntryByKey(key)
		if !ok {
			return fmt.Errorf("snapshot: dirty entry %s not in dataset", key)
		}
		blobRef := ""
		if en.Artifact != nil {
			if ref, ok := e.artifactRefs[key]; ok && ref.art == en.Artifact {
				blobRef = ref.key
			} else {
				raw := encodeArtifact(en.Artifact)
				blobRef = castore.KeyOf(raw)
				blobs = append(blobs, castore.Blob{Key: blobRef, Data: raw})
				newArtRefs[key] = artifactRef{art: en.Artifact, key: blobRef}
			}
		}
		rec, err := ds.EncodeEntry(en, blobRef)
		if err != nil {
			return fmt.Errorf("snapshot entry %s: %w", key, err)
		}
		dsSet[key] = rec
	}
	if err := addKV(sectionDataset, dsSet, nil, dsRebase); err != nil {
		return err
	}

	// Graph: journaled operations, or a full re-base when the log grew past
	// the live node+edge count.
	ops := e.mg.G.JournalOps()
	journalDrop := len(ops)
	liveGraph := e.mg.G.NodeCount() + e.mg.G.EdgeCount()
	if e.logs[sectionGraph].rebaseDue(liveGraph) {
		data, err := encodeGraphChunk(graphChunk{Reset: e.mg.G.Persist()})
		if err != nil {
			return fmt.Errorf("snapshot graph chunk: %w", err)
		}
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{sectionGraph, key, liveGraph, true})
	} else if len(ops) > 0 {
		data, err := encodeGraphChunk(graphChunk{Ops: ops})
		if err != nil {
			return fmt.Errorf("snapshot graph chunk: %w", err)
		}
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{sectionGraph, key, len(ops), false})
	}

	// Per-shard sections. Shards iterate in sorted-ecosystem order so chunk
	// bytes are deterministic for a given state.
	ecos := make([]ecosys.Ecosystem, 0, len(e.shards))
	for eco := range e.shards {
		ecos = append(ecos, eco)
	}
	sort.Slice(ecos, func(i, j int) bool { return ecos[i] < ecos[j] })

	totalItems, totalImports, totalParts := 0, 0, 0
	for _, sh := range e.shards {
		totalItems += len(sh.items)
		totalImports += len(sh.importsOf)
		totalParts += len(sh.clustersByPart)
	}

	itRebase := e.logs[sectionItems].rebaseDue(totalItems)
	itSet := make(map[string]json.RawMessage)
	impRebase := e.logs[sectionImports].rebaseDue(totalImports)
	impSet := make(map[string]json.RawMessage)
	partRebase := e.logs[sectionPartitions].rebaseDue(totalParts)
	partSet := make(map[string]json.RawMessage)
	var partDel []string
	for _, eco := range ecos {
		sh := e.shards[eco]
		name := eco.String()
		items := sh.newItems
		if itRebase {
			items = sh.items
		}
		for _, it := range items {
			itSet[ecoKey(name, it.ID)] = encodeItem(it)
		}
		var fronts []string
		if impRebase {
			fronts = make([]string, 0, len(sh.importsOf))
			for front := range sh.importsOf {
				fronts = append(fronts, front)
			}
		} else {
			fronts = make([]string, 0, len(sh.dirtyImports))
			for front := range sh.dirtyImports {
				fronts = append(fronts, front)
			}
		}
		sort.Strings(fronts)
		for _, front := range fronts {
			raw, err := json.Marshal(sh.importsOf[front])
			if err != nil {
				return fmt.Errorf("snapshot imports %s: %w", front, err)
			}
			impSet[front] = raw
		}
		var partKeys []string
		if partRebase {
			partKeys = make([]string, 0, len(sh.clustersByPart))
			for key := range sh.clustersByPart {
				partKeys = append(partKeys, key)
			}
		} else {
			partKeys = make([]string, 0, len(sh.dirtyParts))
			for key := range sh.dirtyParts {
				partKeys = append(partKeys, key)
			}
			for key := range sh.delParts {
				partDel = append(partDel, ecoKey(name, key))
			}
		}
		sort.Strings(partKeys)
		for _, key := range partKeys {
			raw, err := json.Marshal(sh.clustersByPart[key])
			if err != nil {
				return fmt.Errorf("snapshot partition %s: %w", key, err)
			}
			partSet[ecoKey(name, key)] = raw
		}
	}
	if err := addKV(sectionItems, itSet, nil, itRebase); err != nil {
		return err
	}
	if err := addKV(sectionImports, impSet, nil, impRebase); err != nil {
		return err
	}
	if partRebase {
		partDel = nil
	}
	sort.Strings(partDel)
	if err := addKV(sectionPartitions, partSet, partDel, partRebase); err != nil {
		return err
	}

	// Reports: add-only by URL (the corpus keeps the first crawl).
	repRebase := e.logs[sectionReports].rebaseDue(len(e.mg.Reports))
	var repURLs []string
	if repRebase {
		repURLs = make([]string, 0, len(e.mg.Reports))
		for _, rep := range e.mg.Reports {
			repURLs = append(repURLs, rep.URL)
		}
	} else {
		repURLs = sortedKeySet(e.track.reports)
	}
	repSet := make(map[string]json.RawMessage, len(repURLs))
	for _, url := range repURLs {
		rep := e.reportByURL[url]
		if rep == nil {
			return fmt.Errorf("snapshot: dirty report %s not in corpus", url)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return fmt.Errorf("snapshot report %s: %w", url, err)
		}
		repSet[url] = raw
	}
	if err := addKV(sectionReports, repSet, nil, repRebase); err != nil {
		return err
	}

	// Pair ownership: per-key sets and deletes, or a full re-base once the
	// chain outgrows the map.
	poRebase := e.logs[sectionPairOwners].rebaseDue(len(e.coexOwner))
	poSet := make(map[string]json.RawMessage)
	var poDel []string
	if poRebase {
		for pk, url := range e.coexOwner {
			raw, err := json.Marshal(url)
			if err != nil {
				return fmt.Errorf("snapshot pair owner %s: %w", pk, err)
			}
			poSet[pk] = raw
		}
	} else {
		for pk := range e.track.pairs {
			url, ok := e.coexOwner[pk]
			if !ok {
				return fmt.Errorf("snapshot: dirty pair %s not in ownership map", pk)
			}
			raw, err := json.Marshal(url)
			if err != nil {
				return fmt.Errorf("snapshot pair owner %s: %w", pk, err)
			}
			poSet[pk] = raw
		}
		for pk := range e.track.delPairs {
			poDel = append(poDel, pk)
		}
	}
	sort.Strings(poDel)
	if err := addKV(sectionPairOwners, poSet, poDel, poRebase); err != nil {
		return err
	}

	// Make the chunks and blobs durable before a single manifest byte:
	// Append fsyncs the segment (and the directory) before returning.
	if _, err := e.store.Append(blobs); err != nil {
		return fmt.Errorf("snapshot: append segment: %w", err)
	}

	// Build the prospective section refs without touching the logs yet.
	man := manifestSnapshot{
		Version:    snapshotVersionSegmented,
		Config:     e.cfg,
		Header:     ds.EncodeHeader(),
		Posting:    e.posting,
		AppliedSeq: e.appliedSeq,
		FeedPos:    e.feedPos,
		Sections:   make(map[string][]string, len(sectionNames)),
	}
	for _, name := range sectionNames {
		man.Sections[name] = e.logs[name].refs
	}
	for _, pc := range chunks {
		if pc.rebase {
			if pc.key == "" {
				man.Sections[pc.section] = []string{}
			} else {
				man.Sections[pc.section] = []string{pc.key}
			}
			continue
		}
		cur := man.Sections[pc.section]
		man.Sections[pc.section] = append(cur[:len(cur):len(cur)], pc.key)
	}
	if err := json.NewEncoder(w).Encode(&man); err != nil {
		return fmt.Errorf("snapshot: manifest: %w", err)
	}

	// Commit: the segment is durable and the manifest encoded, so the logs
	// advance and the dirty state resets. (If the caller's rename fails the
	// previous manifest stays published; its refs are a subset of ours plus
	// chunks the next checkpoint will still reference — nothing is lost.)
	for _, pc := range chunks {
		lg := e.logs[pc.section]
		if pc.rebase {
			lg.refs = nil
			if pc.key != "" {
				lg.refs = []string{pc.key}
			}
			lg.logged = pc.keys
			lg.rebase = false
		} else {
			lg.refs = append(lg.refs, pc.key)
			lg.logged += pc.keys
		}
	}
	e.mg.G.DropJournalPrefix(journalDrop)
	e.track.reset()
	for _, sh := range e.shards {
		sh.newItems = nil
		sh.dirtyImports = nil
		sh.dirtyParts = nil
		sh.delParts = nil
	}
	for k, ref := range newArtRefs {
		e.artifactRefs[k] = ref
	}
	return nil
}

// sortedKeySet returns the map's keys sorted.
func sortedKeySet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedRawKeys returns a replayed chunk-state's keys sorted, so restore
// loops that group entries into per-ecosystem containers visit them in a
// deterministic order.
func sortedRawKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RestoreEngineWithStore reconstructs an engine from a snapshot stream
// backed by a content store; it is the one restore entry point. A v5
// manifest resolves its chunk references against st; a monolithic v3/v4
// stream an earlier serve wrote restores and then has the store attached,
// so the first checkpoint after an upgrade re-bases every section into the
// store. Either way the returned engine checkpoints segmentedly.
func RestoreEngineWithStore(r io.Reader, st *castore.Store) (*Engine, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("restore read: %w", err)
	}
	// A v3/v4 file decodes as a manifest too: the keys they share agree in type.
	var man manifestSnapshot
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("restore decode: %w", err)
	}
	if man.Version <= snapshotVersion {
		e, err := restoreEngine(buf)
		if err != nil {
			return nil, err
		}
		e.AttachStore(st)
		return e, nil
	}
	if man.Version != snapshotVersionSegmented {
		return nil, fmt.Errorf("restore: snapshot version %d, want %d..%d",
			man.Version, minSnapshotVersion, snapshotVersionSegmented)
	}

	// One read session for the whole restore: the chunk fetch here and the
	// artifact fetch in the dataset section decode each segment once.
	sess := st.Session()
	var allRefs []string
	for _, name := range sectionNames {
		allRefs = append(allRefs, man.Sections[name]...)
	}
	chunkData, err := sess.Fetch(allRefs)
	if err != nil {
		return nil, fmt.Errorf("restore: fetch chunks: %w", err)
	}

	// The sections are independent, so they decode concurrently, each into
	// its own variables and its own logged count. parallel.Do reports the
	// first error in argument order, so a damaged manifest fails in the
	// same section under any GOMAXPROCS.
	var (
		g                               *graph.Graph
		ds                              *collect.Result
		decoded                         []collect.DecodedEntry
		reps                            []*reports.Report
		items                           map[string][]snapshotItem
		imports                         map[string][]string
		partitions                      map[string]map[string][]textsim.Cluster
		pairOwners                      map[string]string
		gLogged, dsLogged, repLogged    int
		itLogged, impLogged, partLogged int
		poLogged                        int
	)
	replay := func(section string) (map[string]json.RawMessage, int, error) {
		return replayKV(section, man.Sections[section], chunkData)
	}
	err = parallel.Do(
		func() (err error) {
			g, gLogged, err = restoreGraphChain(man.Sections[sectionGraph], chunkData)
			return err
		},
		func() error {
			entState, n, err := replay(sectionDataset)
			if err != nil {
				return err
			}
			dsLogged = n
			decoded, err = restoreEntries(entState, sess)
			if err != nil {
				return err
			}
			ds, err = collect.AssembleResult(man.Header, decoded)
			if err != nil {
				return fmt.Errorf("restore dataset: %w", err)
			}
			return nil
		},
		func() error {
			repState, n, err := replay(sectionReports)
			if err != nil {
				return err
			}
			repLogged = n
			reps = make([]*reports.Report, 0, len(repState))
			for _, raw := range repState {
				var rep reports.Report
				if err := json.Unmarshal(raw, &rep); err != nil {
					return fmt.Errorf("restore report: %w", err)
				}
				reps = append(reps, &rep)
			}
			sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
			return nil
		},
		func() error {
			itState, n, err := replay(sectionItems)
			if err != nil {
				return err
			}
			itLogged = n
			items, err = restoreItems(itState)
			return err
		},
		func() error {
			impState, n, err := replay(sectionImports)
			if err != nil {
				return err
			}
			impLogged = n
			imports = make(map[string][]string, len(impState))
			for front, raw := range impState {
				var deps []string
				if err := json.Unmarshal(raw, &deps); err != nil {
					return fmt.Errorf("restore imports %s: %w", front, err)
				}
				imports[front] = deps
			}

			partState, n, err := replay(sectionPartitions)
			if err != nil {
				return err
			}
			partLogged = n
			partitions = make(map[string]map[string][]textsim.Cluster)
			for _, k := range sortedRawKeys(partState) {
				eco, inner, ok := splitEcoKey(k)
				if !ok {
					return fmt.Errorf("restore: malformed partition key %q", k)
				}
				var cs []textsim.Cluster
				if err := json.Unmarshal(partState[k], &cs); err != nil {
					return fmt.Errorf("restore partition %s: %w", k, err)
				}
				if partitions[eco] == nil {
					partitions[eco] = make(map[string][]textsim.Cluster)
				}
				partitions[eco][inner] = cs
			}

			poState, n, err := replay(sectionPairOwners)
			if err != nil {
				return err
			}
			poLogged = n
			pairOwners = make(map[string]string, len(poState))
			for pk, raw := range poState {
				var url string
				if err := json.Unmarshal(raw, &url); err != nil {
					return fmt.Errorf("restore pair owner %s: %w", pk, err)
				}
				pairOwners[pk] = url
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	logged := map[string]int{
		sectionGraph:      gLogged,
		sectionDataset:    dsLogged,
		sectionReports:    repLogged,
		sectionItems:      itLogged,
		sectionImports:    impLogged,
		sectionPartitions: partLogged,
		sectionPairOwners: poLogged,
	}

	e, err := restoreFromParts(ds, g, &engineSnapshot{
		Config:     man.Config,
		Reports:    reps,
		Partitions: partitions,
		Items:      items,
		Imports:    imports,
		Posting:    man.Posting,
		PairOwners: pairOwners,
		AppliedSeq: man.AppliedSeq,
		FeedPos:    man.FeedPos,
	})
	if err != nil {
		return nil, err
	}

	// Attach the store with the manifest's logs instead of a blank re-base:
	// the restored engine keeps appending deltas to the same chunk chains.
	e.mu.Lock()
	e.attachStoreLocked(st)
	for _, name := range sectionNames {
		lg := e.logs[name]
		lg.refs = append([]string(nil), man.Sections[name]...)
		lg.logged = logged[name]
		lg.rebase = false
	}
	for _, de := range decoded {
		if de.BlobRef != "" && de.Entry.Artifact != nil {
			e.artifactRefs[de.Entry.Coord.Key()] = artifactRef{art: de.Entry.Artifact, key: de.BlobRef}
		}
	}
	e.mu.Unlock()
	return e, nil
}

// replayKV folds one keyed section's chunk log into its final key state
// and returns it with the number of set/delete records the log holds.
func replayKV(section string, refs []string, chunkData map[string]json.RawMessage) (map[string]json.RawMessage, int, error) {
	state := make(map[string]json.RawMessage)
	logged := 0
	for _, ref := range refs {
		ch, err := decodeKVChunk(chunkData[ref])
		if err != nil {
			return nil, 0, fmt.Errorf("restore %s chunk %s: %w", section, ref, err)
		}
		if len(state) == 0 && ch.Set != nil {
			// While the state is empty (the chain's first chunk, usually a
			// re-base), the chunk's freshly decoded map becomes the state.
			state = ch.Set
		} else {
			for k, v := range ch.Set {
				state[k] = v
			}
		}
		for _, k := range ch.Del {
			delete(state, k)
		}
		logged += len(ch.Set) + len(ch.Del)
	}
	return state, logged, nil
}

// restoreGraphChain replays the graph's chunk log (a re-base resets, ops
// apply on top) and returns the graph with its logged count.
func restoreGraphChain(refs []string, chunkData map[string]json.RawMessage) (*graph.Graph, int, error) {
	g := graph.New()
	logged := 0
	for _, ref := range refs {
		gc, err := decodeGraphChunk(chunkData[ref])
		if err != nil {
			return nil, 0, fmt.Errorf("restore graph chunk %s: %w", ref, err)
		}
		if gc.Reset != nil {
			g, err = gc.Reset.Build()
			if err != nil {
				return nil, 0, fmt.Errorf("restore graph reset %s: %w", ref, err)
			}
			logged = g.NodeCount() + g.EdgeCount()
		}
		if len(gc.Ops) > 0 {
			if err := g.Apply(gc.Ops); err != nil {
				return nil, 0, fmt.Errorf("restore graph ops %s: %w", ref, err)
			}
			logged += len(gc.Ops)
		}
	}
	return g, logged, nil
}

// restoreEntries decodes the dataset's entry records in key order and
// attaches their artifact blobs, fetched through sess. Records and
// artifacts decode in parallel; the first error in key order wins.
func restoreEntries(entState map[string]json.RawMessage, sess *castore.Session) ([]collect.DecodedEntry, error) {
	keys := sortedRawKeys(entState)
	decoded := make([]collect.DecodedEntry, len(keys))
	err := parallel.ForEachErr(len(keys), func(i int) (err error) {
		decoded[i], err = collect.DecodeEntry(entState[keys[i]])
		if err != nil {
			return fmt.Errorf("restore entry %s: %w", keys[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var wantArts []string
	for _, de := range decoded {
		if de.BlobRef != "" && de.Entry.Artifact == nil {
			wantArts = append(wantArts, de.BlobRef)
		}
	}
	artData, err := sess.Fetch(wantArts)
	if err != nil {
		return nil, fmt.Errorf("restore: fetch artifacts: %w", err)
	}
	err = parallel.ForEachErr(len(decoded), func(i int) error {
		ref := decoded[i].BlobRef
		if ref == "" || decoded[i].Entry.Artifact != nil {
			return nil
		}
		art, err := decodeArtifact(artData[ref])
		if err != nil {
			return fmt.Errorf("restore artifact %s: %w", ref, err)
		}
		// AssembleResult checks every artifact's hash on one goroutine;
		// computing it here caches it, so the SHA-256 runs on the workers.
		art.Hash()
		decoded[i].Entry.Artifact = art
		return nil
	})
	if err != nil {
		return nil, err
	}
	return decoded, nil
}

// restoreItems decodes the clustering items in key order, in parallel, and
// groups them per ecosystem.
func restoreItems(itState map[string]json.RawMessage) (map[string][]snapshotItem, error) {
	keys := sortedRawKeys(itState)
	its := make([]snapshotItem, len(keys))
	err := parallel.ForEachErr(len(keys), func(i int) error {
		if _, _, ok := splitEcoKey(keys[i]); !ok {
			return fmt.Errorf("restore: malformed item key %q", keys[i])
		}
		it, err := decodeItem(itState[keys[i]])
		if err != nil {
			return fmt.Errorf("restore item %s: %w", keys[i], err)
		}
		its[i] = it
		return nil
	})
	if err != nil {
		return nil, err
	}
	items := make(map[string][]snapshotItem)
	for i, k := range keys {
		eco, _, _ := splitEcoKey(k)
		items[eco] = append(items[eco], its[i])
	}
	return items, nil
}

// BlobFetcher resolves content keys to verified blob bytes: a
// *castore.Store, or a *castore.Session shared across several calls.
type BlobFetcher interface {
	Fetch(hashes []string) (map[string]json.RawMessage, error)
}

// CollectManifestRefs returns every blob a serialized snapshot references:
// the manifest's section chunks plus the artifact blobs its dataset chunks
// point at. Compaction unions this over every retained snapshot so archived
// manifests stay restorable. Monolithic (pre-v5) snapshots reference
// nothing. src resolves the dataset chunks (their entry records carry the
// artifact refs): a castore.Session shared across the manifests of one
// compaction decodes each segment once.
func CollectManifestRefs(r io.Reader, src BlobFetcher) (map[string]bool, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest refs: %w", err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("manifest refs decode: %w", err)
	}
	live := make(map[string]bool)
	if man.Version != snapshotVersionSegmented {
		return live, nil
	}
	for _, name := range sectionNames {
		for _, ref := range man.Sections[name] {
			live[ref] = true
		}
	}
	dsData, err := src.Fetch(man.Sections[sectionDataset])
	if err != nil {
		return nil, fmt.Errorf("manifest refs: fetch dataset chunks: %w", err)
	}
	for _, ref := range man.Sections[sectionDataset] {
		ch, err := decodeKVChunk(dsData[ref])
		if err != nil {
			return nil, fmt.Errorf("manifest refs: dataset chunk %s: %w", ref, err)
		}
		for k, raw := range ch.Set {
			de, err := collect.DecodeEntry(raw)
			if err != nil {
				return nil, fmt.Errorf("manifest refs: entry %s: %w", k, err)
			}
			if de.BlobRef != "" {
				live[de.BlobRef] = true
			}
		}
	}
	return live, nil
}

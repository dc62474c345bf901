package core

// Segmented delta checkpoints, the only format an engine writes. A
// store-attached engine splits persistence into a small manifest (written
// to the caller's stream, which owns the atomic-rename and WAL-truncation
// contracts) and content-addressed chunks in a castore.Store. A checkpoint
// holds the engine's inputs and nothing derived from them: two sections,
// the dataset entries (each artifact a blob of its own) and the reports.
// Each is a log of chunks: a chunk either re-bases the section (full
// re-encode) or applies a delta of the keys the engine marked since the
// last checkpoint (track.go). The manifest holds only the ordered chunk
// references plus the small inline state (config, dataset header, and the
// caller's journal and feed stamps, which the engine itself does not keep),
// so checkpoint cost is O(changes since the last checkpoint), not
// O(corpus).
//
// MALGRAPH is a pure function of those inputs, and any batch partition of
// them ingests to the one-shot state. So a restore decodes the entries,
// their artifacts and the reports, and replays them as one Ingest into a
// fresh engine: the graph, the clustering items and LSH partitions, the
// import and report indexes are all rebuilt by the running code, never
// stitched together from state an older build derived. The decoded entries
// go to that Ingest as they are, each artifact checked against its
// record's hash as it is attached; the only dataset a restore builds is
// the replay's own. CollectManifestRefs reads a manifest through the same
// decode, chain fold and entry decoder, so compaction keeps exactly the
// blobs a restore fetches.
//
// Snapshot is one loop over the sections, driven by kvSectionsLocked's
// table of live keys and value encoders; the dataset's encoder also queues
// each new artifact blob.
//
// Chunks and artifact blobs are binary (chunkcodec.go), so a restore
// decodes them by slicing; entry records and reports keep JSON values
// inside the binary kv frame. The manifest itself stays JSON, version 9;
// its dataset header holds the collection time only, since each entry
// record carries its own accounting. Versions 5 to 8 still restore, what
// this build derives ignored: their header's per-source accounting, a v5
// to v7 manifest's graph and items chains, a v5 or v6 manifest's
// partitions and pairOwners chains, and a v5's posting map and imports
// chain. A restore reads nothing else: a monolithic v3/v4 snapshot and a
// JSON chunk from an earlier build are refused with an error naming commit
// 3e24565, the last that reads them.
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
	"maps"
	"slices"
	"sort"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
)

// snapshotVersionSegmented is the manifest format version Snapshot writes.
// Versions 5 to 8 differ only in what a restore ignores: the per-source
// accounting their dataset header carried, a v5 to v7 manifest's graph and
// items sections, a v5 or v6 manifest's partitions and pairOwners
// sections, and the posting map a v5 carried inline and its imports
// section. The version moved to 9 with the header's accounting, so an
// older build refuses a v9 manifest instead of restoring empty tables.
const snapshotVersionSegmented = 9

// readableManifest reports whether a manifest of version v restores: the
// one predicate RestoreEngineWithStore and CollectManifestRefs share.
func readableManifest(v int) bool { return v >= 5 && v <= snapshotVersionSegmented }

// Stamps are the caller's journal and feed positions a manifest carries;
// the engine keeps no copy. AppliedSeq is the journal sequence of the last
// batch the state reflects, FeedPos the feed batches ingested, FeedBatches
// the size of the feed FeedPos indexes (0 if unrecorded).
type Stamps struct {
	AppliedSeq  uint64 `json:"appliedSeq,omitempty"`
	FeedPos     int    `json:"feedPos,omitempty"`
	FeedBatches int    `json:"feedBatches,omitempty"`
}

// manifestSnapshot is the manifest wire format: inline small state plus,
// per section, the ordered chunk references that reconstruct it.
type manifestSnapshot struct {
	Version int                  `json:"version"`
	Config  Config               `json:"config"`
	Header  collect.ResultHeader `json:"datasetHeader"`
	Stamps
	Sections map[string][]string `json:"sections"`
}

// kvChunk is one delta of a keyed section: Set writes (or overwrites) keys,
// Del removes them. Chunks apply in manifest order; within one chunk the two
// are disjoint by construction. Snapshot writes it as a binary kv frame
// (encodeKVChunk). No section deletes keys, so Snapshot writes no Del; the
// frame keeps its delete list, and the restore applies it.
type kvChunk struct {
	Set map[string][]byte
	Del []string
}

// pendingChunk is one chunk built but not yet durable; the in-memory
// section logs are only updated after the whole segment fsyncs and the
// manifest encodes, so a failed checkpoint leaves the dirty state intact
// for the next attempt.
type pendingChunk struct {
	section sectionID
	key     string // "" for an empty re-base (clears the section's refs)
	keys    int
	rebase  bool
}

// checkpoint accumulates one Snapshot's output before anything is durable:
// the segment's blobs in write order, the chunk each section gains, and the
// artifact blobs the dataset's entry records newly reference.
type checkpoint struct {
	blobs      []castore.Blob
	chunks     []pendingChunk
	newArtRefs map[string]artifactRef
}

// addChunk queues data as section id's next chunk, holding keys records.
func (cp *checkpoint) addChunk(id sectionID, data []byte, keys int, rebase bool) {
	key := castore.KeyOf(data)
	cp.blobs = append(cp.blobs, castore.Blob{Key: key, Data: data})
	cp.chunks = append(cp.chunks, pendingChunk{id, key, keys, rebase})
}

// kvSection is how Snapshot reads one keyed section of the live state:
// how many keys are live (the re-base policy's yardstick), every live key
// in key order (what a re-base writes) and the encoded value of one live
// key.
type kvSection struct {
	size  int
	keys  func() []string
	value func(key string) ([]byte, error)
}

// kvSectionsLocked returns the table of keyed sections, indexed by
// sectionID. The dataset's value encoder is the one with a side effect: it
// queues an entry's artifact as a standalone blob into cp, ahead of the
// chunk that references it, unless the blob is already durable.
func (e *Engine) kvSectionsLocked(cp *checkpoint) [numSections]kvSection {
	var t [numSections]kvSection
	ds := e.mg.Dataset
	t[secDataset] = kvSection{
		size: len(ds.Entries),
		keys: func() []string {
			keys := make([]string, len(ds.Entries))
			for i, en := range ds.Entries {
				keys[i] = en.Coord.Key()
			}
			return keys
		},
		value: func(key string) ([]byte, error) {
			en, ok := ds.EntryByKey(key)
			if !ok {
				return nil, errNotLive
			}
			blobRef := ""
			if en.Artifact != nil {
				if ref, ok := e.artifactRefs[key]; ok && ref.art == en.Artifact {
					blobRef = ref.key
				} else {
					raw := encodeArtifact(en.Artifact)
					blobRef = castore.KeyOf(raw)
					cp.blobs = append(cp.blobs, castore.Blob{Key: blobRef, Data: raw})
					cp.newArtRefs[key] = artifactRef{art: en.Artifact, key: blobRef}
				}
			}
			return collect.EncodeEntry(en, blobRef)
		},
	}
	t[secReports] = kvSection{
		size: len(e.mg.Reports),
		keys: func() []string {
			keys := make([]string, len(e.mg.Reports))
			for i, rep := range e.mg.Reports {
				keys[i] = rep.URL
			}
			return keys
		},
		value: func(url string) ([]byte, error) {
			if rep := reportWithURL(e.mg.Reports, url); rep != nil {
				return json.Marshal(rep)
			}
			return nil, errNotLive
		},
	}
	return t
}

// errNotLive reports a dirty key that names no live state: the engine's
// marks and its state disagree.
var errNotLive = errors.New("dirty key not in the live state")

// addKVChunk queues section id's chunk: every live key on a re-base, else
// the keys marked since the last checkpoint, each with its live value, in
// key order, so the dataset's artifact blobs queue in key order too.
func (cp *checkpoint) addKVChunk(id sectionID, sec *section, kv kvSection) error {
	rebase := sec.log.rebaseDue(kv.size)
	var keys []string
	if rebase {
		keys = kv.keys()
	} else {
		keys = slices.Sorted(maps.Keys(sec.dirty))
	}
	set := make(map[string][]byte, len(keys))
	for _, key := range keys {
		raw, err := kv.value(key)
		if err != nil {
			return fmt.Errorf("snapshot %s %s: %w", sectionNames[id], key, err)
		}
		set[key] = raw
	}
	if len(set) == 0 {
		if rebase {
			// The section re-based to empty: the manifest must drop the
			// old refs even though there is no chunk to write.
			cp.chunks = append(cp.chunks, pendingChunk{section: id, rebase: true})
		}
		return nil
	}
	cp.addChunk(id, encodeKVChunk(kvChunk{Set: set}), len(set), rebase)
	return nil
}

// Snapshot writes a checkpoint, the only format an engine writes: delta
// chunks and new artifact blobs into the attached store, the manifest to w
// with the caller's stamps, at O(changes since the last checkpoint).
// Without a store (AttachStore) it errors.
func (e *Engine) Snapshot(w io.Writer, stamps Stamps) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return errors.New("snapshot: no content store attached (AttachStore)")
	}
	cp := &checkpoint{newArtRefs: make(map[string]artifactRef)}
	kv := e.kvSectionsLocked(cp)
	for id := range e.sections {
		if err := cp.addKVChunk(sectionID(id), &e.sections[id], kv[id]); err != nil {
			return err
		}
	}

	// Make the chunks and blobs durable before a single manifest byte:
	// Append fsyncs the segment (and the directory) before returning.
	if _, err := e.store.Append(cp.blobs); err != nil {
		return fmt.Errorf("snapshot: append segment: %w", err)
	}

	// Build the prospective section refs without touching the logs yet.
	man := manifestSnapshot{
		Version:  snapshotVersionSegmented,
		Config:   e.cfg,
		Header:   e.mg.Dataset.EncodeHeader(),
		Stamps:   stamps,
		Sections: make(map[string][]string, numSections),
	}
	for id, name := range sectionNames {
		man.Sections[name] = e.sections[id].log.refs
	}
	for _, pc := range cp.chunks {
		name := sectionNames[pc.section]
		if pc.rebase {
			if pc.key == "" {
				man.Sections[name] = []string{}
			} else {
				man.Sections[name] = []string{pc.key}
			}
			continue
		}
		cur := man.Sections[name]
		man.Sections[name] = append(cur[:len(cur):len(cur)], pc.key)
	}
	if err := json.NewEncoder(w).Encode(&man); err != nil {
		return fmt.Errorf("snapshot: manifest: %w", err)
	}

	// Commit: the segment is durable and the manifest encoded, so the logs
	// advance and the dirty keys reset. (If the caller's rename fails the
	// previous manifest stays published; its refs are a subset of ours plus
	// chunks the next checkpoint will still reference — nothing is lost.)
	for _, pc := range cp.chunks {
		lg := &e.sections[pc.section].log
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
	for id := range e.sections {
		e.sections[id].dirty = make(dirtyKeys)
	}
	for k, ref := range cp.newArtRefs {
		e.artifactRefs[k] = ref
	}
	return nil
}

// readManifest decodes a manifest, the one decode RestoreEngineWithStore
// and CollectManifestRefs share; each applies its own version policy. A
// v3/v4 file decodes as a manifest too: the keys they share agree in type.
func readManifest(r io.Reader) (manifestSnapshot, error) {
	var man manifestSnapshot
	buf, err := io.ReadAll(r)
	if err != nil {
		return man, fmt.Errorf("read: %w", err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		return man, fmt.Errorf("decode: %w", err)
	}
	return man, nil
}

// RestoreEngineWithStore reconstructs an engine from a v5 to v9 manifest
// whose chunk references resolve against st; it is the one restore entry
// point. It decodes the dataset entries, each with its accounting, their
// artifacts and the reports, and replays them as one Ingest into a fresh
// engine stamped with the header's collection time. It returns the
// manifest's stamps beside the engine. The returned engine has st attached
// and appends its next checkpoint's deltas to the manifest's chunk chains.
// A monolithic v3/v4 snapshot is refused, naming the last commit that reads
// it.
func RestoreEngineWithStore(r io.Reader, st *castore.Store) (*Engine, Stamps, error) {
	man, err := readManifest(r)
	if err != nil {
		return nil, Stamps{}, fmt.Errorf("restore %w", err)
	}
	switch {
	case readableManifest(man.Version):
	case man.Version == 3 || man.Version == 4:
		return nil, Stamps{}, fmt.Errorf("restore: a monolithic v%d snapshot; this build reads only v5 to v%d manifests, and the last commit that reads v3/v4 is %s",
			man.Version, snapshotVersionSegmented, lastLegacyReader)
	default:
		return nil, Stamps{}, fmt.Errorf("restore: snapshot version %d, want 5 to %d", man.Version, snapshotVersionSegmented)
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
		return nil, Stamps{}, fmt.Errorf("restore: fetch chunks: %w", err)
	}

	// The sections are independent, so they decode concurrently, each into
	// its own variables and its own logged count. parallel.Do reports the
	// first error in argument order, so a damaged manifest fails in the
	// same section under any GOMAXPROCS.
	var (
		decoded []collect.DecodedEntry
		reps    []*reports.Report
		logged  [numSections]int
	)
	err = parallel.Do(
		func() (err error) {
			decoded, logged[secDataset], err = decodeDataset(man.Sections[sectionDataset], chunkData)
			if err != nil {
				return fmt.Errorf("restore %w", err)
			}
			return attachArtifacts(decoded, sess)
		},
		func() error {
			repState, n, err := replayKV(sectionReports, man.Sections[sectionReports], chunkData)
			if err != nil {
				return fmt.Errorf("restore %w", err)
			}
			logged[secReports] = n
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
	)
	if err != nil {
		return nil, Stamps{}, err
	}

	// Replay the inputs as one batch into a fresh engine: the ingest derives
	// the dataset, the graph, the clustering state and every index with the
	// running code. No store is attached yet, so the replay marks nothing
	// dirty.
	entries := make([]*collect.Entry, len(decoded))
	artRefs := make(map[string]artifactRef, len(decoded))
	for i, de := range decoded {
		entries[i] = de.Entry
		if de.BlobRef != "" {
			artRefs[de.Entry.Coord.Key()] = artifactRef{art: de.Entry.Artifact, key: de.BlobRef}
		}
	}
	e := NewEngine(man.Config)
	if _, err := e.Ingest(Batch{Entries: entries, Reports: reps, At: man.Header.CollectedAt}); err != nil {
		return nil, Stamps{}, fmt.Errorf("restore ingest: %w", err)
	}

	// Attach the store with the manifest's logs instead of a blank re-base:
	// the restored engine keeps appending deltas to the same chunk chains.
	e.mu.Lock()
	e.attachStoreLocked(st)
	for id, name := range sectionNames {
		e.sections[id].log = sectionLog{
			refs:   append([]string(nil), man.Sections[name]...),
			logged: logged[id],
		}
	}
	e.artifactRefs = artRefs
	e.mu.Unlock()
	return e, man.Stamps, nil
}

// replayKV folds one keyed section's chunk log into its final key state
// and returns it with the number of set/delete records the log holds.
func replayKV(section string, refs []string, chunkData map[string][]byte) (map[string][]byte, int, error) {
	state := make(map[string][]byte)
	logged := 0
	for _, ref := range refs {
		ch, err := decodeKVChunk(chunkData[ref])
		if err != nil {
			return nil, 0, fmt.Errorf("%s chunk %s: %w", section, ref, err)
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

// decodeDataset folds a dataset chunk chain, resolved in chunkData, and
// decodes its live entry records in key order, in parallel; the first
// error in key order wins. It returns the fold's logged count too. The
// restore and CollectManifestRefs both read the dataset through it, so
// compaction keeps exactly the artifact blobs a restore fetches.
func decodeDataset(refs []string, chunkData map[string][]byte) ([]collect.DecodedEntry, int, error) {
	state, logged, err := replayKV(sectionDataset, refs, chunkData)
	if err != nil {
		return nil, 0, err
	}
	keys := slices.Sorted(maps.Keys(state))
	decoded := make([]collect.DecodedEntry, len(keys))
	err = parallel.ForEachErr(len(keys), func(i int) (err error) {
		decoded[i], err = collect.DecodeEntry(state[keys[i]])
		if err != nil {
			return fmt.Errorf("entry %s: %w", keys[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return decoded, logged, nil
}

// attachArtifacts fetches the decoded records' artifact blobs through sess
// and attaches each to its entry, decoded and checked against the record's
// hash on parallel workers; the first error in key order wins.
func attachArtifacts(decoded []collect.DecodedEntry, sess *castore.Session) error {
	var wantArts []string
	for _, de := range decoded {
		if de.BlobRef != "" {
			wantArts = append(wantArts, de.BlobRef)
		}
	}
	artData, err := sess.Fetch(wantArts)
	if err != nil {
		return fmt.Errorf("restore: fetch artifacts: %w", err)
	}
	return parallel.ForEachErr(len(decoded), func(i int) error {
		ref := decoded[i].BlobRef
		if ref == "" {
			return nil
		}
		art, err := decodeArtifact(artData[ref])
		if err != nil {
			return fmt.Errorf("restore artifact %s: %w", ref, err)
		}
		if err := decoded[i].AttachArtifact(art); err != nil {
			return fmt.Errorf("restore dataset: %w", err)
		}
		return nil
	})
}

// BlobFetcher resolves content keys to verified blob bytes: a
// *castore.Store, or a *castore.Session shared across several calls.
type BlobFetcher interface {
	Fetch(hashes []string) (map[string][]byte, error)
}

// CollectManifestRefs returns every blob a restore of a serialized
// snapshot fetches: the manifest's section chunks plus the artifact blobs
// of its live entry records, the dataset chain folded and decoded as the
// restore folds and decodes it. A blob only a superseded record names is
// not live. Compaction unions this over every retained snapshot so
// archived manifests stay restorable. A file of a version the restore does
// not read references no blob, so it yields none rather than an error: an
// archived v4 generation must not stall compaction. The sections no
// restore reads — a v5 to v7 manifest's graph and items chains, a v5 or v6
// manifest's partitions and pairOwners chains, a v5's imports chain — are
// not live either. src resolves the dataset chunks: a castore.Session
// shared across the manifests of one compaction decodes each segment once.
func CollectManifestRefs(r io.Reader, src BlobFetcher) (map[string]bool, error) {
	man, err := readManifest(r)
	if err != nil {
		return nil, fmt.Errorf("manifest refs %w", err)
	}
	live := make(map[string]bool)
	if !readableManifest(man.Version) {
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
	decoded, _, err := decodeDataset(man.Sections[sectionDataset], dsData)
	if err != nil {
		return nil, fmt.Errorf("manifest refs: %w", err)
	}
	for _, de := range decoded {
		if de.BlobRef != "" {
			live[de.BlobRef] = true
		}
	}
	return live, nil
}

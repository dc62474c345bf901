package core

// Contracts under test for segmented checkpoints: a chain of delta
// checkpoints restores to the live engine's digest in every section; v5 to
// v8 manifests restore with what this build derives ignored (a v8 header's
// per-source accounting, and older manifests' derived sections), and
// compaction drops those sections' chunks; a
// monolithic v3/v4 snapshot and a JSON chunk of each kind are refused,
// naming the last commit that reads them, and the store is left as it
// was; version errors are explicit about what the reader needed; a
// tampered artifact is refused; compaction
// driven by CollectManifestRefs never strands a restorable manifest and
// drops a blob only a superseded record names; and arbitrary manifest
// bytes never panic the restore.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/reports"
)

func openTestStore(t testing.TB) *castore.Store {
	t.Helper()
	st, err := castore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertRestoredMatches compares a freshly-restored engine against the live
// engine it was checkpointed from: every digest section, the similar
// families and the duplicate groups must be exact.
func assertRestoredMatches(t *testing.T, restored, live *Engine, label string) {
	t.Helper()
	assertSameDigest(t, restored, live, label)
	if a, b := similarFamilies(live.Graph().G), similarFamilies(restored.Graph().G); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: similar clusters differ:\n live %v\n restored %v", label, a, b)
	}
	if !reflect.DeepEqual(live.Graph().DuplicateGroups(), restored.Graph().DuplicateGroups()) {
		t.Errorf("%s: duplicate groups differ", label)
	}
}

// TestSegmentedCheckpointChainMatchesBuild ingests the corpus in batches
// with a checkpoint after every batch, restores from the final manifest
// (whose sections are chains of delta chunks by then), and requires the
// result to match the one-shot build — then keeps the chain going: the
// restored engine ingests more, checkpoints again, and restores again.
func TestSegmentedCheckpointChainMatchesBuild(t *testing.T) {
	ds, reps := miniDataset(t)
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)

	third := len(ds.Entries) / 3
	cuts := []int{third, 2 * third, len(ds.Entries)}
	var manifest bytes.Buffer
	lo := 0
	for i, hi := range cuts {
		b := Batch{Entries: ds.Entries[lo:hi], At: ds.CollectedAt}
		if i < len(reps) {
			b.Reports = reps[i : i+1]
		}
		if i == len(cuts)-1 {
			b.Reports = reps[i:]
		}
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest, Stamps{}); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}

	// The live batch-ingested engine matches the one-shot build (the core
	// determinism contract); the restored engine must match the live one.
	assertEngineMatchesBuild(t, eng, want, "live-chain")
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, restored, eng, "restored-from-chain")

	// The chain continues after restore: another delta lands, another
	// manifest, another restore — still equivalent.
	extra := Batch{Entries: ds.Entries[:third]} // replayed prefix must no-op
	if _, err := restored.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	manifest.Reset()
	if err := restored.Snapshot(&manifest, Stamps{}); err != nil {
		t.Fatal(err)
	}
	again, _, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, again, restored, "restored-twice")
}

// monolithicHeaders are snapshot files in the formats serve wrote before
// manifests, by version: v2 (long unreadable), and v3 and v4 with the
// top-level keys they carried.
var monolithicHeaders = map[int]string{
	2: `{"version":2}`,
	3: `{"version":3,"config":{},"dataset":{"mode":"full","entries":[]},"reports":[],"graph":{"nodes":[],"edges":[]},` +
		`"partitions":{},"items":{},"imports":{},"posting":{},"pairOwners":{}}`,
	4: `{"version":4,"config":{},"dataset":{"mode":"full","entries":[]},"reports":[],"graph":{"nodes":[],"edges":[]},` +
		`"partitions":{},"items":{},"imports":{},"posting":{},"pairOwners":{},"appliedSeq":3,"feedPos":2}`,
}

// TestRestoreVersionErrors: RestoreEngineWithStore reads only v5 to v9
// manifests; a snapshot of any version it has never read names the ones it
// wants, and leaves the store as it found it.
func TestRestoreVersionErrors(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want string
	}{
		{monolithicHeaders[2], "snapshot version 2, want 5 to 9"},
		{`{"version":10}`, "snapshot version 10, want 5 to 9"},
		{`{}`, "snapshot version 0, want 5 to 9"},
	} {
		assertRestoreRefused(t, tc.raw, tc.want)
	}
}

// TestMonolithicSnapshotRefused: a monolithic v3/v4 snapshot is refused as
// one, naming the last commit that reads it. The refused file leaves the
// store empty, and CollectManifestRefs reads no refs from it, so
// compaction is never stalled by an archived one.
func TestMonolithicSnapshotRefused(t *testing.T) {
	for _, version := range []int{3, 4} {
		assertRestoreRefused(t, monolithicHeaders[version], fmt.Sprintf("monolithic v%d", version), "3e24565")
	}
}

// assertRestoreRefused requires RestoreEngineWithStore to refuse raw with
// an error naming every want, to write nothing to the store, and
// CollectManifestRefs to read no refs from raw.
func assertRestoreRefused(t *testing.T, raw string, wants ...string) {
	t.Helper()
	store := openTestStore(t)
	_, _, err := RestoreEngineWithStore(strings.NewReader(raw), store)
	if err == nil {
		t.Fatalf("%.40s: restore accepted it", raw)
	}
	for _, want := range wants {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%.40s: error %q does not mention %q", raw, err, want)
		}
	}
	if store.Len() != 0 || store.SegmentCount() != 0 {
		t.Errorf("%.40s: refused restore wrote to the store", raw)
	}
	refs, err := CollectManifestRefs(strings.NewReader(raw), store)
	if err != nil || len(refs) != 0 {
		t.Errorf("%.40s: CollectManifestRefs = %v, %v; want no refs", raw, refs, err)
	}
}

// TestCompactionKeepsManifestRestorable drives several delta checkpoints,
// compacts the store down to exactly what CollectManifestRefs says the
// final manifest needs, and requires that manifest to still restore — the
// liveness contract serve's background compaction relies on.
func TestCompactionKeepsManifestRestorable(t *testing.T) {
	ds, reps := miniDataset(t)
	want := reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for lo := 0; lo < len(ds.Entries); lo += third {
		hi := lo + third
		if hi > len(ds.Entries) {
			hi = len(ds.Entries)
		}
		b := Batch{Entries: ds.Entries[lo:hi], At: ds.CollectedAt}
		if lo == 0 {
			b.Reports = reps
		}
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest, Stamps{}); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := store.SegmentCount()
	if segsBefore < 2 {
		t.Fatalf("want several segments before compaction, got %d", segsBefore)
	}

	// LiveRefs (the engine's view) must equal CollectManifestRefs (the
	// manifest's view) — compaction unions both, but each alone must keep
	// the latest checkpoint restorable.
	fromManifest, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if fromEngine := eng.LiveRefs(); !reflect.DeepEqual(fromManifest, fromEngine) {
		t.Fatalf("CollectManifestRefs lists %d refs, engine LiveRefs %d; want the same set", len(fromManifest), len(fromEngine))
	}

	compacted, err := store.Compact(fromManifest)
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("Compact reported nothing to do")
	}
	if store.SegmentCount() != 1 {
		t.Fatalf("SegmentCount after compaction = %d, want 1", store.SegmentCount())
	}
	assertEngineMatchesBuild(t, eng, want, "live-pre-compaction")
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	assertRestoredMatches(t, restored, eng, "post-compaction")

	// And the compacted store still accepts the next delta checkpoint.
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:third]}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(io.Discard, Stamps{}); err != nil {
		t.Fatal(err)
	}
}

// checkpointMini ingests miniDataset as one batch into an engine attached
// to a fresh store and checkpoints it, returning the engine, its manifest
// and the store.
func checkpointMini(t testing.TB) (*Engine, []byte, *castore.Store) {
	t.Helper()
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := eng.Snapshot(&manifest, Stamps{}); err != nil {
		t.Fatal(err)
	}
	return eng, manifest.Bytes(), store
}

// TestSnapshotStampsRoundTrip: the stamps handed to Snapshot come back
// from the restore of its manifest, and a manifest written without stamps
// restores zero stamps and carries none of their keys. The stamps are not
// state: both restores digest alike.
func TestSnapshotStampsRoundTrip(t *testing.T) {
	eng, bare, store := checkpointMini(t)
	for _, key := range []string{"appliedSeq", "feedPos", "feedBatches"} {
		if bytes.Contains(bare, []byte(`"`+key+`"`)) {
			t.Errorf("manifest without stamps carries %q: %s", key, bare)
		}
	}
	restoredBare, got, err := RestoreEngineWithStore(bytes.NewReader(bare), store)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Stamps{}) {
		t.Fatalf("manifest without stamps restored stamps %+v, want zero", got)
	}

	want := Stamps{AppliedSeq: 7, FeedPos: 3, FeedBatches: 5}
	var stamped bytes.Buffer
	if err := eng.Snapshot(&stamped, want); err != nil {
		t.Fatal(err)
	}
	restored, got, err := RestoreEngineWithStore(bytes.NewReader(stamped.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored stamps %+v, want %+v", got, want)
	}
	assertSameDigest(t, restored, restoredBare, "stamped")
}

// artifactRecords folds manifest's dataset chain from st and returns its
// live records that name an artifact blob, in key order, each beside its
// decoded form.
func artifactRecords(t testing.TB, manifest []byte, st *castore.Store) (keys []string, recs [][]byte, decoded []collect.DecodedEntry) {
	t.Helper()
	var man manifestSnapshot
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	data, err := st.Fetch(man.Sections[sectionDataset])
	if err != nil {
		t.Fatal(err)
	}
	state, _, err := replayKV(sectionDataset, man.Sections[sectionDataset], data)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range slices.Sorted(maps.Keys(state)) {
		de, err := collect.DecodeEntry(state[k])
		if err != nil {
			t.Fatal(err)
		}
		if de.BlobRef != "" {
			keys, recs, decoded = append(keys, k), append(recs, state[k]), append(decoded, de)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("manifest has %d dataset records naming an artifact, want at least 2", len(keys))
	}
	return keys, recs, decoded
}

// tamperedArtifactBlob stores in st a copy of the artifact blob ref names
// with a line added to each file, so it no longer hashes to the original,
// and returns the copy's key and its artifact's hash.
func tamperedArtifactBlob(t testing.TB, st *castore.Store, ref string) (key, hash string) {
	t.Helper()
	data, err := st.Fetch([]string{ref})
	if err != nil {
		t.Fatal(err)
	}
	art, err := decodeArtifact(data[ref])
	if err != nil {
		t.Fatal(err)
	}
	files := append([]ecosys.File(nil), art.Files...)
	for i := range files {
		files[i].Content += "\nimport evil\n"
	}
	tampered := ecosys.NewArtifact(art.Coord, art.Description, files)
	raw := encodeArtifact(tampered)
	key = castore.KeyOf(raw)
	if _, err := st.Append([]castore.Blob{{Key: key, Data: raw}}); err != nil {
		t.Fatal(err)
	}
	return key, tampered.Hash()
}

// appendDatasetChunks appends one dataset delta chunk per set, each stored
// in st, to the end of manifest's dataset chain.
func appendDatasetChunks(t testing.TB, manifest []byte, st *castore.Store, sets ...map[string][]byte) []byte {
	t.Helper()
	var man manifestSnapshot
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		raw := encodeKVChunk(kvChunk{Set: set})
		if _, err := st.Append([]castore.Blob{{Key: castore.KeyOf(raw), Data: raw}}); err != nil {
			t.Fatal(err)
		}
		man.Sections[sectionDataset] = append(man.Sections[sectionDataset], castore.KeyOf(raw))
	}
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withSupersededBlob appends two dataset delta chunks to manifest: the
// first sets its first artifact-bearing key to a record naming a different
// artifact blob, stored in st; the second sets the key's live record
// again. The result restores to the same state as manifest. It returns
// the superseded blob's key too.
func withSupersededBlob(t testing.TB, manifest []byte, st *castore.Store) ([]byte, string) {
	t.Helper()
	keys, recs, decoded := artifactRecords(t, manifest, st)
	blob, hash := tamperedArtifactBlob(t, st, decoded[0].BlobRef)
	rec := bytes.Replace(recs[0], []byte(decoded[0].BlobRef), []byte(blob), 1)
	rec = bytes.Replace(rec, []byte(decoded[0].Hash), []byte(hash), 1)
	return appendDatasetChunks(t, manifest, st, map[string][]byte{keys[0]: rec}, map[string][]byte{keys[0]: recs[0]}), blob
}

// withTamperedArtifacts appends a dataset delta chunk to manifest that
// re-points the records of its first and last artifact-bearing keys at
// tampered copies of their blobs, stored in st; the records keep their
// hashes. It returns the first tampered record's coordinate too.
func withTamperedArtifacts(t testing.TB, manifest []byte, st *castore.Store) ([]byte, ecosys.Coord) {
	t.Helper()
	keys, recs, decoded := artifactRecords(t, manifest, st)
	set := make(map[string][]byte)
	for _, i := range []int{0, len(keys) - 1} {
		blob, _ := tamperedArtifactBlob(t, st, decoded[i].BlobRef)
		set[keys[i]] = bytes.Replace(recs[i], []byte(decoded[i].BlobRef), []byte(blob), 1)
	}
	return appendDatasetChunks(t, manifest, st, set), decoded[0].Entry.Coord
}

// TestRestoreRefusesTamperedArtifact: a manifest whose artifact blobs no
// longer hash to their records' hashes is refused, naming the first
// tampered coordinate in key order, with the same error at any GOMAXPROCS,
// although the artifacts decode and verify in parallel.
func TestRestoreRefusesTamperedArtifact(t *testing.T) {
	_, manifest, store := checkpointMini(t)
	bad, first := withTamperedArtifacts(t, manifest, store)
	want := "restore dataset: manifest decode: artifact hash mismatch for " + first.String()
	var errs []string
	for _, procs := range []int{1, 8} {
		_, err := restoreAt(procs, bad, store)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: restored tampered artifacts", procs)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("error differs by GOMAXPROCS:\n 1: %s\n 8: %s", errs[0], errs[1])
	}
	if !strings.Contains(errs[0], want) {
		t.Errorf("error %q does not mention %q", errs[0], want)
	}
}

// TestCompactionDropsSupersededArtifactBlob: an artifact blob that only a
// superseded dataset record names is not among CollectManifestRefs' refs,
// since no restore fetches it; compaction driven by those refs drops it,
// and the manifest still restores to the live engine's state.
func TestCompactionDropsSupersededArtifactBlob(t *testing.T) {
	eng, manifest, store := checkpointMini(t)
	raw, superseded := withSupersededBlob(t, manifest, store)
	refs, err := CollectManifestRefs(bytes.NewReader(raw), store)
	if err != nil {
		t.Fatal(err)
	}
	if refs[superseded] {
		t.Fatalf("CollectManifestRefs lists the superseded artifact blob %s", superseded)
	}
	if _, err := store.Compact(refs); err != nil {
		t.Fatal(err)
	}
	if missing := store.Missing([]string{superseded}); len(missing) != 1 {
		t.Fatalf("compaction kept the superseded artifact blob %s", superseded)
	}
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(raw), store)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	assertRestoredMatches(t, restored, eng, "restored-after-superseded-blob")
	if live := restored.LiveRefs(); !reflect.DeepEqual(live, refs) {
		t.Fatalf("restored engine's LiveRefs has %d refs, CollectManifestRefs %d; want the same set", len(live), len(refs))
	}
}

// restoreAt restores a manifest with GOMAXPROCS set to procs.
func restoreAt(procs int, manifest []byte, st *castore.Store) (*Engine, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e, _, err := RestoreEngineWithStore(bytes.NewReader(manifest), st)
	return e, err
}

// assertRestoreIgnoresRetiredField puts a retired field back into a
// manifest's config, where an older build wrote it, and requires the
// manifest to restore to the live engine's state in every section but
// config. put edits the decoded config; mark is the field as it must
// appear in the edited manifest.
func assertRestoreIgnoresRetiredField(t *testing.T, mark string, put func(cfg map[string]any)) {
	t.Helper()
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	live := NewEngine(DefaultConfig())
	live.AttachStore(store)
	if _, err := live.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := live.Snapshot(&manifest, Stamps{}); err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	var cfg map[string]any
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(man["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	put(cfg)
	var err error
	if man["config"], err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(mark)) {
		t.Fatalf("edited manifest lacks %s: %s", mark, old)
	}
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(old), store)
	if err != nil {
		t.Fatalf("restore of a manifest carrying %s: %v", mark, err)
	}
	var diff []string
	for _, name := range digestDiff(digestOf(t, restored), digestOf(t, live)) {
		if name != "config" {
			diff = append(diff, name)
		}
	}
	if len(diff) > 0 {
		t.Fatalf("restored engine differs from the live one in %v", diff)
	}
}

// TestRestoreIgnoresRetiredProbeCap: ClusterConfig.MaxBucketProbe, the
// per-bucket LSH probe cap, is gone, but a manifest written while it
// existed carries it in its config.Cluster.
func TestRestoreIgnoresRetiredProbeCap(t *testing.T) {
	assertRestoreIgnoresRetiredField(t, `"MaxBucketProbe":512`, func(cfg map[string]any) {
		cfg["Cluster"].(map[string]any)["MaxBucketProbe"] = 512
	})
}

// TestRestoreIgnoresRetiredSeed: Config.Seed, which derived the never-read
// per-partition clustering RNG streams, is gone, but a manifest written
// while it existed carries it in its config.
func TestRestoreIgnoresRetiredSeed(t *testing.T) {
	assertRestoreIgnoresRetiredField(t, `"Seed":1`, func(cfg map[string]any) {
		cfg["Seed"] = 1
	})
}

// editManifest decodes manifest, applies edit to it and re-encodes it.
func editManifest(t testing.TB, manifest []byte, edit func(man map[string]any)) []byte {
	t.Helper()
	var man map[string]any
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	edit(man)
	old, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return old
}

// asV8Manifest rewrites a manifest this build wrote as the version 8 whose
// dataset header also carried the per-source accounting: a perSource
// member with a wrong total for a canonical key and a non-canonical key,
// "03", that an older build refused. A restore that read it would fail or
// differ from the live engine.
func asV8Manifest(t testing.TB, manifest []byte, _ *castore.Store) []byte {
	t.Helper()
	return editManifest(t, manifest, func(man map[string]any) {
		man["version"] = 8
		man["datasetHeader"].(map[string]any)["perSource"] = map[string]any{
			"1":  map[string]any{"Total": 999, "LocalUnavailable": 7, "GlobalMissing": 7},
			"03": map[string]any{"Total": 1},
		}
	})
}

// asV7Manifest rewrites a manifest this build wrote as the version 7 that
// also persisted the graph and the clustering items: asV8Manifest's header,
// a graph chain whose one chunk is garbage bytes in st, and an items chain
// whose one chunk st does not hold. A restore that read either would fail.
func asV7Manifest(t testing.TB, manifest []byte, st *castore.Store) []byte {
	t.Helper()
	garbage := []byte("graph chunk of garbage bytes")
	if _, err := st.Append([]castore.Blob{{Key: castore.KeyOf(garbage), Data: garbage}}); err != nil {
		t.Fatal(err)
	}
	return editManifest(t, asV8Manifest(t, manifest, st), func(man map[string]any) {
		man["version"] = 7
		sections := man["sections"].(map[string]any)
		sections["graph"] = []string{castore.KeyOf(garbage)}
		sections["items"] = []string{castore.KeyOf([]byte("items chunk not in the store"))}
	})
}

// asV6Manifest rewrites a manifest this build wrote as the version 6 that
// also persisted the partition clusters and the pair owners: asV7Manifest's
// chains plus a partitions and a pairOwners chain, each of one chunk the
// store does not hold. A restore that read any of them would fail.
func asV6Manifest(t testing.TB, manifest []byte, st *castore.Store) []byte {
	t.Helper()
	return editManifest(t, asV7Manifest(t, manifest, st), func(man map[string]any) {
		man["version"] = 6
		sections := man["sections"].(map[string]any)
		sections["partitions"] = []string{castore.KeyOf([]byte("partitions chunk not in the store"))}
		sections["pairOwners"] = []string{castore.KeyOf([]byte("pairOwners chunk not in the store"))}
	})
}

// asV5Manifest rewrites a manifest this build wrote as the version 5 that
// also persisted the posting lists and the import caches: asV6Manifest's
// chains plus a deliberately wrong posting map and an imports chain whose
// one chunk the store does not hold. A restore that read any of them would
// fail or differ from the live engine.
func asV5Manifest(t testing.TB, manifest []byte, st *castore.Store) []byte {
	t.Helper()
	return editManifest(t, asV6Manifest(t, manifest, st), func(man map[string]any) {
		man["version"] = 5
		man["posting"] = map[string][]string{"PyPI/not-a-package@0": {"https://wrong.example/report"}}
		man["sections"].(map[string]any)["imports"] = []string{castore.KeyOf([]byte("imports chunk not in the store"))}
	})
}

// TestRestoreUpgradesV5Manifest: a v5 manifest restores to the live
// engine's digest in every section, its posting map and its imports,
// partitions, pairOwners, graph and items chains ignored — the replay
// rebuilds all six — and CollectManifestRefs gives it the same live set as
// the v9 manifest it was rewritten from.
func TestRestoreUpgradesV5Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV5Manifest, "v5")
}

// TestRestoreUpgradesV6Manifest: a v6 manifest restores to the live
// engine's digest in every section, its partitions, pairOwners, graph and
// items chains ignored — the replay re-clusters the partitions and re-joins
// the pair owners — and CollectManifestRefs gives it the same live set as
// the v9 manifest it was rewritten from.
func TestRestoreUpgradesV6Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV6Manifest, "v6")
}

// TestRestoreUpgradesV7Manifest: a v7 manifest whose graph chain names a
// garbage blob and whose items chain names no blob at all restores to the
// live engine's digest in every section — the replay derives the graph and
// the items, it never reads them — and CollectManifestRefs gives it the
// same live set as the v9 manifest it was rewritten from, so compaction
// drops the garbage blob and the v7 manifest still restores.
func TestRestoreUpgradesV7Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV7Manifest, "v7")
}

// TestRestoreUpgradesV8Manifest: a v8 manifest whose dataset header
// carries a per-source accounting, with a wrong total and a non-canonical
// key, restores to the live engine's digest in every section — the
// accounting is summed from the entry records, the header's is never read
// — and CollectManifestRefs gives it the same live set as the v9 manifest
// it was rewritten from.
func TestRestoreUpgradesV8Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV8Manifest, "v8")
}

// assertRestoresUpgraded checkpoints a two-batch ingest, rewrites the
// manifest with rewrite as an older version, and requires the result to
// restore to the live engine, to have the original's live refs, and to
// restore again after a compaction that keeps only those refs.
func assertRestoresUpgraded(t *testing.T, rewrite func(testing.TB, []byte, *castore.Store) []byte, version string) {
	t.Helper()
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	live := NewEngine(DefaultConfig())
	live.AttachStore(store)
	half := len(ds.Entries) / 2
	var manifest bytes.Buffer
	for _, b := range []Batch{
		{Entries: ds.Entries[:half], Reports: reps, At: ds.CollectedAt},
		{Entries: ds.Entries[half:]},
	} {
		if _, err := live.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := live.Snapshot(&manifest, Stamps{}); err != nil {
			t.Fatal(err)
		}
	}
	old := rewrite(t, manifest.Bytes(), store)
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(old), store)
	if err != nil {
		t.Fatalf("restore of a %s manifest: %v", version, err)
	}
	assertRestoredMatches(t, restored, live, "restored-from-"+version)

	want, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectManifestRefs(bytes.NewReader(old), store)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("CollectManifestRefs: %s manifest %d refs, v9 original %d; want the same set", version, len(got), len(want))
	}

	// Compaction driven by those refs drops every chunk of the ignored
	// chains and leaves the old manifest restorable.
	var oldMan manifestSnapshot
	if err := json.Unmarshal(old, &oldMan); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Compact(got); err != nil {
		t.Fatal(err)
	}
	for name, refs := range oldMan.Sections {
		if name == sectionDataset || name == sectionReports {
			continue
		}
		if kept := len(refs) - len(store.Missing(refs)); kept != 0 {
			t.Errorf("%s manifest: compaction kept %d chunk(s) of its %s chain", version, kept, name)
		}
	}
	again, _, err := RestoreEngineWithStore(bytes.NewReader(old), store)
	if err != nil {
		t.Fatalf("restore of a %s manifest after compaction: %v", version, err)
	}
	assertRestoredMatches(t, again, live, "restored-from-"+version+"-after-compaction")
}

// TestSegmentedRestoreParallelMatchesSequential: the restore decodes its
// sections concurrently, so it must reproduce the same engine at any
// GOMAXPROCS — the same digest as the live engine, the same chunk logs — and a damaged manifest must fail with the same error, the
// first in section order, however the section decodes interleave.
func TestSegmentedRestoreParallelMatchesSequential(t *testing.T) {
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	// One entry per batch, a checkpoint after each: every section's chain
	// is a re-base followed by deltas.
	var manifest bytes.Buffer
	for i, en := range ds.Entries {
		b := Batch{Entries: ds.Entries[i : i+1], At: ds.CollectedAt}
		if i < len(reps) {
			b.Reports = reps[i : i+1]
		}
		if i == len(ds.Entries)-1 {
			b.Reports = reps
		}
		if _, err := eng.Ingest(b); err != nil {
			t.Fatalf("ingest %s: %v", en.Coord.Key(), err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest, Stamps{}); err != nil {
			t.Fatal(err)
		}
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}

	// Make sure the chains exercise deletes: append a set and a delete of
	// the same throwaway report URL to the reports chain. The net state is
	// unchanged, but only an in-order replay gets there.
	bogus := "https://restore-test.example/bogus"
	setChunk := encodeKVChunk(kvChunk{Set: map[string][]byte{bogus: []byte(`{}`)}})
	delChunk := encodeKVChunk(kvChunk{Del: []string{bogus}})
	badChunk := []byte(`"not a chunk"`)
	blobs := []castore.Blob{
		{Key: castore.KeyOf(setChunk), Data: setChunk},
		{Key: castore.KeyOf(delChunk), Data: delChunk},
		{Key: castore.KeyOf(badChunk), Data: badChunk},
	}
	if _, err := store.Append(blobs); err != nil {
		t.Fatal(err)
	}
	man.Sections[sectionReports] = append(man.Sections[sectionReports], blobs[0].Key, blobs[1].Key)
	encode := func(m manifestSnapshot) []byte {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	good := encode(man)

	for _, name := range sectionNames {
		if len(man.Sections[name]) < 2 {
			t.Fatalf("section %s chain has %d chunk(s), want a re-base plus deltas", name, len(man.Sections[name]))
		}
	}
	var first *Engine
	for _, procs := range []int{1, 8} {
		got, err := restoreAt(procs, good, store)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if diff := digestDiff(digestOf(t, got), digestOf(t, eng)); len(diff) > 0 {
			t.Fatalf("GOMAXPROCS=%d: restored digest sections %v differ from the live engine's", procs, diff)
		}
		if first == nil {
			first = got
			continue
		}
		for id, name := range sectionNames {
			a, b := first.sections[id].log, got.sections[id].log
			if a.logged != b.logged || !reflect.DeepEqual(a.refs, b.refs) || a.rebase != b.rebase {
				t.Errorf("section %s log: GOMAXPROCS=1 %+v, GOMAXPROCS=8 %+v", name, a, b)
			}
		}
	}

	// Damaged manifests: one corrupted chunk, then two in different
	// sections — the error must be the first in section order, identical
	// under both settings.
	corrupt := func(sections ...string) []byte {
		m := man
		m.Sections = make(map[string][]string, len(man.Sections))
		for name, refs := range man.Sections {
			m.Sections[name] = append([]string(nil), refs...)
		}
		for _, name := range sections {
			refs := m.Sections[name]
			refs[len(refs)-1] = blobs[2].Key
		}
		return encode(m)
	}
	for _, tc := range []struct {
		sections []string
		want     string
	}{
		{[]string{sectionReports}, "restore reports chunk"},
		{[]string{sectionReports, sectionDataset}, "restore dataset chunk"},
	} {
		bad := corrupt(tc.sections...)
		var errs []string
		for _, procs := range []int{1, 8} {
			_, err := restoreAt(procs, bad, store)
			if err == nil {
				t.Fatalf("%v corrupted: GOMAXPROCS=%d restore succeeded", tc.sections, procs)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("%v corrupted: error differs by GOMAXPROCS:\n 1: %s\n 8: %s", tc.sections, errs[0], errs[1])
		}
		if !strings.Contains(errs[0], tc.want) {
			t.Errorf("%v corrupted: error %q does not mention %q", tc.sections, errs[0], tc.want)
		}
	}
}

// TestSegmentedRestoreRefusesJSONChunks: a manifest whose chain holds a
// JSON chunk of either kind a restore reads — a kv frame, an artifact an
// entry record points at — fails to restore, naming the section, the chunk
// and the last commit that reads JSON chunks, while the same chain without
// it restores to the live digest.
func TestSegmentedRestoreRefusesJSONChunks(t *testing.T) {
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for _, b := range []Batch{
		{Entries: ds.Entries[:third], Reports: reps[:1], At: ds.CollectedAt},
		{Entries: ds.Entries[third:], Reports: reps[1:], At: ds.CollectedAt},
	} {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest, Stamps{}); err != nil {
			t.Fatal(err)
		}
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDigest(t, restored, eng, "binary chain")

	// An entry record with an artifact, re-pointed at a JSON artifact blob.
	dsRefs := man.Sections[sectionDataset]
	data, err := store.Fetch(dsRefs[:1])
	if err != nil {
		t.Fatal(err)
	}
	ch, err := decodeKVChunk(data[dsRefs[0]])
	if err != nil {
		t.Fatal(err)
	}
	jsonArt := []byte(`{"Coord":{"Ecosystem":1,"Name":"x","Version":"1"},"Files":null}`)
	var entryKey string
	var entry []byte
	for _, k := range slices.Sorted(maps.Keys(ch.Set)) {
		de, err := collect.DecodeEntry(ch.Set[k])
		if err != nil {
			t.Fatal(err)
		}
		if de.BlobRef != "" {
			entryKey, entry = k, bytes.Replace(ch.Set[k], []byte(de.BlobRef), []byte(castore.KeyOf(jsonArt)), 1)
			break
		}
	}
	if entry == nil {
		t.Fatal("no dataset entry carries an artifact")
	}

	for _, tc := range []struct {
		section string
		chunk   []byte
		extra   []byte // a blob the chunk references
		want    string
	}{
		{sectionReports, []byte(`{"set":{"https://r":{}}}`), nil, "restore reports chunk"},
		{sectionDataset, encodeKVChunk(kvChunk{Set: map[string][]byte{entryKey: entry}}), jsonArt, "restore artifact"},
	} {
		blobs := []castore.Blob{{Key: castore.KeyOf(tc.chunk), Data: tc.chunk}}
		if tc.extra != nil {
			blobs = append(blobs, castore.Blob{Key: castore.KeyOf(tc.extra), Data: tc.extra})
		}
		if _, err := store.Append(blobs); err != nil {
			t.Fatal(err)
		}
		m := man
		m.Sections = make(map[string][]string, len(man.Sections))
		for name, refs := range man.Sections {
			m.Sections[name] = append([]string(nil), refs...)
		}
		m.Sections[tc.section] = append(m.Sections[tc.section], blobs[0].Key)
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = RestoreEngineWithStore(bytes.NewReader(raw), store)
		if err == nil {
			t.Fatalf("%s: restored a chain holding a JSON chunk", tc.section)
		}
		for _, want := range []string{tc.want, "legacy JSON chunk", "3e24565"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.section, err, want)
			}
		}
	}
}

// The pair-owner-delete goldens of TestCoexistingHubPathGrowth's fixture
// checkpointed after each of three steps: one SHA-256 over the manifests,
// in order, and one over the segment files, in name order.
const (
	pairOwnerDeleteGoldenManifests = "ee98e28ef6722ae833f64d4e1a3da52eba0aa71442f5e77f507b20896f908508"
	pairOwnerDeleteGoldenSegments  = "d884cc60955726998efc31367fcecfa7c3555da98bcad10ff86a43aa3dff49a6"
)

// TestCheckpointGoldenBytesPairOwnerDeletes pins the checkpoint bytes of a
// schedule whose hub-and-path growth drops pair owners: the last batch
// removes the hub's co-existing edges before re-adding its path, and a
// restore, which replays the inputs, must derive the same owners. The
// fixture is TestCoexistingHubPathGrowth's, with beta-two held out to a
// third step: it lands inside the path between beta-one and
// loglib-modules, a pair no other report covers.
func TestCheckpointGoldenBytesPairOwnerDeletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PairwiseLimit = 3
	ds, _ := miniDataset(t)
	var names []ecosys.Coord
	var rest, third, second []*collect.Entry
	for _, e := range ds.Entries {
		if e.Coord.Ecosystem == ecosys.PyPI {
			names = append(names, e.Coord)
		}
		switch e.Coord.Name {
		case "alpha-three":
			second = append(second, e)
		case "beta-two":
			third = append(third, e)
		default:
			rest = append(rest, e)
		}
	}
	big := &reports.Report{URL: "https://z.example/big", Site: "z.example", Packages: names}
	side := &reports.Report{URL: "https://z.example/side", Site: "z.example", Packages: names[:2]}
	dir := t.TempDir()
	st, err := castore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg)
	eng.AttachStore(st)
	h := sha256.New()
	var (
		last         IngestStats
		lastManifest []byte
	)
	for _, b := range []Batch{
		{Entries: rest, Reports: []*reports.Report{big, side}, At: ds.CollectedAt},
		{Entries: second},
		{Entries: third},
	} {
		if last, err = eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Snapshot(&buf, Stamps{}); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		lastManifest = buf.Bytes()
	}
	if last.CoexistingEdgesReplaced == 0 {
		t.Fatal("the last batch replaced no co-existing edge: want the hub's edges removed")
	}
	restored, _, err := RestoreEngineWithStore(bytes.NewReader(lastManifest), st)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDigest(t, restored, eng, "restored-after-hub-growth")
	if got := hex.EncodeToString(h.Sum(nil)); got != pairOwnerDeleteGoldenManifests {
		t.Errorf("manifests digest %s, want %s", got, pairOwnerDeleteGoldenManifests)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	for _, ent := range ents {
		if _, ok := castore.ParseSegmentName(ent.Name()); !ok {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pairOwnerDeleteGoldenSegments {
		t.Errorf("segments digest %s, want %s", got, pairOwnerDeleteGoldenSegments)
	}
}

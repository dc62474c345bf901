package core

// Contracts under test for segmented checkpoints: a chain of delta
// checkpoints restores to the live engine's digest in every section; v5 and
// v6 manifests restore with the sections this build derives ignored; a
// monolithic v3/v4 snapshot and a JSON chunk of each kind are refused,
// naming the last commit that reads them, and the store is left as it
// was; version errors are explicit about what the reader needed;
// compaction driven by CollectManifestRefs never strands a restorable
// manifest; and arbitrary manifest bytes never panic the restore.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
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
		if err := eng.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}

	// The live batch-ingested engine matches the one-shot build (the core
	// determinism contract); the restored engine must match the live one.
	assertEngineMatchesBuild(t, eng, want, "live-chain")
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
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
	if err := restored.Snapshot(&manifest); err != nil {
		t.Fatal(err)
	}
	again, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
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

// TestRestoreVersionErrors: RestoreEngineWithStore reads only v5 to v7
// manifests; a snapshot of any version it has never read names the ones it
// wants, and leaves the store as it found it.
func TestRestoreVersionErrors(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want string
	}{
		{monolithicHeaders[2], "snapshot version 2, want 5 to 7"},
		{`{"version":8}`, "snapshot version 8, want 5 to 7"},
		{`{}`, "snapshot version 0, want 5 to 7"},
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
	_, err := RestoreEngineWithStore(strings.NewReader(raw), store)
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
		if err := eng.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := store.SegmentCount()
	if segsBefore < 2 {
		t.Fatalf("want several segments before compaction, got %d", segsBefore)
	}

	// LiveRefs (the engine's view) must agree with CollectManifestRefs (the
	// manifest's view) — compaction unions both, but each alone must keep
	// the latest checkpoint restorable.
	fromManifest, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine := eng.LiveRefs()
	for ref := range fromManifest {
		if !fromEngine[ref] {
			t.Fatalf("manifest ref %s missing from engine LiveRefs", ref)
		}
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
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	assertRestoredMatches(t, restored, eng, "post-compaction")

	// And the compacted store still accepts the next delta checkpoint.
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:third]}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// restoreAt restores a manifest with GOMAXPROCS set to procs.
func restoreAt(procs int, manifest []byte, st *castore.Store) (*Engine, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return RestoreEngineWithStore(bytes.NewReader(manifest), st)
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
	if err := live.Snapshot(&manifest); err != nil {
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
	restored, err := RestoreEngineWithStore(bytes.NewReader(old), store)
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

// asV6Manifest rewrites a manifest this build wrote as the version 6 that
// persisted the partition clusters and the pair owners: a partitions and a
// pairOwners chain, each of one chunk the store does not hold. A restore
// that read either would fail.
func asV6Manifest(t testing.TB, manifest []byte) []byte {
	t.Helper()
	return editManifest(t, manifest, func(man map[string]any) {
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
func asV5Manifest(t testing.TB, manifest []byte) []byte {
	t.Helper()
	return editManifest(t, asV6Manifest(t, manifest), func(man map[string]any) {
		man["version"] = 5
		man["posting"] = map[string][]string{"PyPI/not-a-package@0": {"https://wrong.example/report"}}
		man["sections"].(map[string]any)["imports"] = []string{castore.KeyOf([]byte("imports chunk not in the store"))}
	})
}

// TestRestoreUpgradesV5Manifest: a v5 manifest restores to the live
// engine's digest in every section, its posting map and its imports,
// partitions and pairOwners chains ignored — the restore rebuilds all four
// — and CollectManifestRefs gives it the same live set as the v7 manifest
// it was rewritten from.
func TestRestoreUpgradesV5Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV5Manifest, "v5")
}

// TestRestoreUpgradesV6Manifest: a v6 manifest restores to the live
// engine's digest in every section, its partitions and pairOwners chains
// ignored — the restore re-clusters the partitions and reads the pair
// owners off the co-existing edges — and CollectManifestRefs gives it the
// same live set as the v7 manifest it was rewritten from.
func TestRestoreUpgradesV6Manifest(t *testing.T) {
	assertRestoresUpgraded(t, asV6Manifest, "v6")
}

// assertRestoresUpgraded checkpoints a two-batch ingest, rewrites the
// manifest with rewrite as an older version, and requires the result to
// restore to the live engine and to have the original's live refs.
func assertRestoresUpgraded(t *testing.T, rewrite func(testing.TB, []byte) []byte, version string) {
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
		if err := live.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
	}
	old := rewrite(t, manifest.Bytes())
	restored, err := RestoreEngineWithStore(bytes.NewReader(old), store)
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
		t.Fatalf("CollectManifestRefs: %s manifest %d refs, v7 original %d; want the same set", version, len(got), len(want))
	}
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
		if err := eng.Snapshot(&manifest); err != nil {
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
		{[]string{sectionItems}, "restore items chunk"},
		{[]string{sectionReports, sectionItems, sectionGraph}, "restore graph chunk"},
		{[]string{sectionItems, sectionReports}, "restore reports chunk"},
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

// TestGraphRebaseChunkBytesUnchanged pins the graph re-base chunk's bytes,
// so a given graph state keeps its chunk key across builds: the engine's
// first checkpoint writes its graph's binary encoding, and golden bytes pin
// an escape-heavy graph and an empty one, which decode back to exactly
// those graphs (binary keeps even invalid UTF-8).
func TestGraphRebaseChunkBytesUnchanged(t *testing.T) {
	// The engine path: the first checkpoint re-bases the graph section.
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := eng.Snapshot(&manifest); err != nil {
		t.Fatal(err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	refs := man.Sections[sectionGraph]
	if len(refs) != 1 {
		t.Fatalf("graph section after the first checkpoint has %d chunks, want one re-base", len(refs))
	}
	got, err := store.Fetch(refs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeGraphChunk(graphChunk{Reset: eng.Graph().G.Persist()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[refs[0]], want) {
		t.Fatalf("re-base chunk is not the binary encoding of the graph:\n got %q\nwant %q", got[refs[0]], want)
	}

	// Strings the JSON encoder escapes (HTML-significant runes, control
	// bytes, U+2028, invalid UTF-8), an attribute-free node and an empty
	// graph.
	g := graph.New()
	for _, id := range []string{"a<b>&c", "line\nbreak\x01", "bad\xffutf8", "plain"} {
		attrs := graph.Attrs{"note": id + "\u2028"}
		if id == "plain" {
			attrs = nil
		}
		if err := g.AddNode(id, attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a<b>&c", "plain", graph.Dependency, graph.Attrs{"why": "<script>"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("bad\xffutf8", "plain", graph.Similar, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		binary string
	}{
		{"escapes", g,
			// magic, re-base flag, 4 nodes (ID, attrs), 2 edges (from, to, type, attrs), 0 ops.
			"\x00gr1\x01" + "\x04" +
				"\x06a<b>&c\x01\x04note\ta<b>&c\u2028" + "\bbad\xffutf8\x01\x04note\vbad\xffutf8\u2028" +
				"\vline\nbreak\x01\x01\x04note\x0eline\nbreak\x01\u2028" + "\x05plain\x00" + "\x02" +
				"\x06a<b>&c\x05plain\x03\x01\x03why\b<script>" + "\bbad\xffutf8\x05plain\x02\x00" + "\x00"},
		{"empty", graph.New(), "\x00gr1\x01\x00\x00\x00"},
	} {
		got, err := encodeGraphChunk(graphChunk{Reset: tc.g.Persist()})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.binary {
			t.Errorf("%s: re-base chunk bytes changed:\n got %q\nwant %q", tc.name, got, tc.binary)
		}
		gc, err := decodeGraphChunk(got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gc.Reset == nil || len(gc.Ops) != 0 {
			t.Fatalf("%s: decoded %+v, want a re-base without ops", tc.name, gc)
		}
		rebuilt, err := gc.Reset.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := rebuilt.Persist(), tc.g.Persist(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rebuilt graph %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestSegmentedRestoreRefusesJSONChunks: a v5 manifest whose chain holds a
// JSON chunk of any of the four kinds — a kv frame, a graph chunk, an item
// value inside a kv frame, an artifact an entry record points at — fails
// to restore, naming the section, the chunk and the last commit that reads
// JSON chunks, while the same chain without it restores to the live digest.
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
		if err := eng.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
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
	for _, k := range sortedKeys(ch.Set) {
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
		{sectionGraph, []byte(`{"reset":{"nodes":null,"edges":[]}}`), nil, "restore graph chunk"},
		{sectionItems, encodeKVChunk(kvChunk{Set: map[string][]byte{ecoKey("PyPI", "x"): []byte(`{"id":"x","vector":[1],"hash":"2"}`)}}), nil, "restore item"},
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
		_, err = RestoreEngineWithStore(bytes.NewReader(raw), store)
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
	pairOwnerDeleteGoldenManifests = "8f9fc531bdf496df9e7f6ebc5beaad92929e83ddb6a1706d2b331a17294c9676"
	pairOwnerDeleteGoldenSegments  = "07719f7d7fa32262161d844926f2358731fc4b0942c72fd76601d5b693024296"
)

// TestCheckpointGoldenBytesPairOwnerDeletes pins the checkpoint bytes of a
// schedule whose hub-and-path growth drops pair owners: the last graph
// delta removes the hub's co-existing edges before re-adding its path, and
// a restore must derive the re-joined owners from what remains. The fixture is TestCoexistingHubPathGrowth's, with beta-two held
// out to a third step: it lands inside the path between beta-one and
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
		man          manifestSnapshot
		lastManifest []byte
	)
	for _, b := range []Batch{
		{Entries: rest, Reports: []*reports.Report{big, side}, At: ds.CollectedAt},
		{Entries: second},
		{Entries: third},
	} {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		if err := json.Unmarshal(buf.Bytes(), &man); err != nil {
			t.Fatal(err)
		}
		lastManifest = buf.Bytes()
	}
	refs := man.Sections[sectionGraph]
	last, err := st.Fetch(refs[len(refs)-1:])
	if err != nil {
		t.Fatal(err)
	}
	gc, err := decodeGraphChunk(last[refs[len(refs)-1]])
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, op := range gc.Ops {
		if op.Kind == "deledge" && op.Type == graph.Coexisting {
			removed++
		}
	}
	if len(refs) != 3 || gc.Reset != nil || removed == 0 {
		t.Fatalf("graph log %d chunk(s), last removes %d co-existing edge(s): want a delta that removes", len(refs), removed)
	}
	restored, err := RestoreEngineWithStore(bytes.NewReader(lastManifest), st)
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

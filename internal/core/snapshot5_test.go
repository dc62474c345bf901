package core

// Contracts under test for segmented (v5) checkpoints: a chain of delta
// checkpoints restores to the live engine's digest in every section; a
// monolithic v3/v4 snapshot an earlier serve wrote restores into a
// store-backed engine with the digest of the engine that wrote it (the
// upgrade road); version errors are explicit about what the reader needed;
// compaction driven by CollectManifestRefs never strands a restorable
// manifest; and arbitrary manifest bytes never panic the restore.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/graph"
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
// engine it was checkpointed from. Restore has one cosmetic latitude (shared
// with the monolithic path): an ecosystem with zero similarity clusters may
// come back as a missing key or an empty slice where the live engine holds
// nil, so clusters compare empty-normalized; everything else must be exact.
func assertRestoredMatches(t *testing.T, restored, live *Engine, label string) {
	t.Helper()
	if a, b := graphSig(t, live.Graph()), graphSig(t, restored.Graph()); a != b {
		t.Errorf("%s: graph signature differs from the live engine", label)
	}
	assertSameDigest(t, restored, live, label)
	norm := func(e *Engine) map[string][]string {
		out := make(map[string][]string)
		for eco, cs := range e.Graph().SimilarClusters {
			for _, c := range cs {
				out[eco.String()] = append(out[eco.String()], strings.Join(c.Members, ","))
			}
			sort.Strings(out[eco.String()])
		}
		return out
	}
	if a, b := norm(live), norm(restored); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: similar clusters differ:\n live %v\n restored %v", label, a, b)
	}
	if !reflect.DeepEqual(live.Graph().DuplicateGroups(), restored.Graph().DuplicateGroups()) {
		t.Errorf("%s: duplicate groups differ", label)
	}
}

// TestSegmentedCheckpointChainMatchesBuild ingests the corpus in batches
// with a checkpoint after every batch, restores from the final manifest
// (whose sections are chains of delta chunks by then), and requires the
// result to match the one-shot Build — then keeps the chain going: the
// restored engine ingests more, checkpoints again, and restores again.
func TestSegmentedCheckpointChainMatchesBuild(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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

	// The live batch-ingested engine matches the one-shot Build (the core
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

// v4Fixture is a monolithic v4 snapshot as an earlier serve wrote it: the
// engine after fixtureBatches' first batch.
const v4Fixture = "testdata/snapshot-v4.json"

// fixtureBatches splits miniDataset in two; the first batch is the state
// v4Fixture holds.
func fixtureBatches(t testing.TB) (first, second Batch) {
	t.Helper()
	ds, reps := miniDataset(t)
	half := len(ds.Entries) / 2
	first = Batch{Entries: ds.Entries[:half], PerSource: ds.BatchOf(ds.Entries[:half]).PerSource, Reports: reps[:1], At: ds.CollectedAt}
	second = Batch{Entries: ds.Entries[half:], PerSource: ds.BatchOf(ds.Entries[half:]).PerSource, Reports: reps[1:]}
	return first, second
}

// readV4Fixture returns the v4 fixture and its "version":3 variant (the
// same state; v3 only lacks the sequence stamps, which are zero here).
func readV4Fixture(t testing.TB) (v4, v3 []byte) {
	t.Helper()
	v4, err := os.ReadFile(v4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	v3 = bytes.Replace(v4, []byte(`{"version":4,`), []byte(`{"version":3,`), 1)
	if bytes.Equal(v3, v4) {
		t.Fatalf("%s does not start with a version-4 header", v4Fixture)
	}
	return v4, v3
}

// TestMonolithicRestoresIntoSegmentedEngine is the upgrade road: the v4
// fixture and its v3 variant restore through RestoreEngineWithStore to the
// digest of a live engine that ingested the same batch; the first
// checkpoint writes a v5 manifest that restores to that digest again, and
// the upgraded engine finishes the corpus to match Build.
func TestMonolithicRestoresIntoSegmentedEngine(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, second := fixtureBatches(t)
	live := NewEngine(DefaultConfig())
	if _, err := live.Ingest(first); err != nil {
		t.Fatal(err)
	}
	v4, v3 := readV4Fixture(t)
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"v4", v4}, {"v3", v3}} {
		store := openTestStore(t)
		upgraded, err := RestoreEngineWithStore(bytes.NewReader(tc.raw), store)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if upgraded.Store() != store {
			t.Fatalf("%s: store not attached after monolithic restore", tc.name)
		}
		assertSameDigest(t, upgraded, live, tc.name+" fixture")

		// The first checkpoint after the upgrade re-bases everything into
		// the store as a v5 manifest that restores to the same state.
		var manifest bytes.Buffer
		if err := upgraded.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(manifest.Bytes(), []byte(`"version":5`)) {
			t.Fatalf("%s: upgrade checkpoint wrote a non-v5 snapshot: %.80s", tc.name, manifest.Bytes())
		}
		if store.Len() == 0 {
			t.Fatalf("%s: upgrade checkpoint wrote no blobs to the store", tc.name)
		}
		restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDigest(t, restored, live, tc.name+" upgraded manifest")

		// The upgraded engine finishes the corpus by real ingest, so it
		// must match Build; the restore of its next manifest must match it.
		if _, err := upgraded.Ingest(second); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := upgraded.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
		assertEngineMatchesBuild(t, upgraded, want, tc.name+" upgraded-live")
		restored, err = RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
		if err != nil {
			t.Fatal(err)
		}
		assertRestoredMatches(t, restored, upgraded, tc.name+" upgraded-restored")
	}
}

// TestRestoreVersionErrors pins the pre-v3 refusal: the monolithic decoder
// and RestoreEngineWithStore both name the minimum supported version.
func TestRestoreVersionErrors(t *testing.T) {
	_, err := restoreEngine([]byte(`{"version":2}`))
	if err == nil {
		t.Fatal("restoreEngine accepted a version-2 snapshot")
	}
	for _, want := range []string{"version 2", "minimum supported version 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("pre-v3 error %q does not mention %q", err, want)
		}
	}
	// RestoreEngineWithStore shares the floor (it routes old versions to the
	// monolithic reader).
	if _, err := RestoreEngineWithStore(strings.NewReader(`{"version":2}`), openTestStore(t)); err == nil ||
		!strings.Contains(err.Error(), "minimum supported version") {
		t.Errorf("RestoreEngineWithStore pre-v3 error = %v", err)
	}
}

// TestCompactionKeepsManifestRestorable drives several delta checkpoints,
// compacts the store down to exactly what CollectManifestRefs says the
// final manifest needs, and requires that manifest to still restore — the
// liveness contract serve's background compaction relies on.
func TestCompactionKeepsManifestRestorable(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	// the same throwaway partition key to the partition chain. The net
	// state is unchanged, but only an in-order replay gets there.
	bogus := ecoKey("PyPI", "restore-test-bogus")
	setChunk := encodeKVChunk(kvChunk{Set: map[string]json.RawMessage{bogus: json.RawMessage(`[]`)}})
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
	man.Sections[sectionPartitions] = append(man.Sections[sectionPartitions], blobs[0].Key, blobs[1].Key)
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
		for _, name := range sectionNames {
			a, b := first.logs[name], got.logs[name]
			if a.logged != b.logged || !reflect.DeepEqual(a.refs, b.refs) || a.rebase != b.rebase {
				t.Errorf("section %s log: GOMAXPROCS=1 %+v, GOMAXPROCS=8 %+v", name, *a, *b)
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
		{[]string{sectionPairOwners, sectionReports, sectionGraph}, "restore graph chunk"},
		{[]string{sectionPairOwners, sectionItems}, "restore items chunk"},
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

// viaJSON is g as a JSON round trip sees it, the view legacy chunks keep.
func viaJSON(t *testing.T, g *graph.Graph) *graph.Persisted {
	t.Helper()
	raw, err := json.Marshal(g.Persist())
	if err != nil {
		t.Fatal(err)
	}
	var p graph.Persisted
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestGraphRebaseChunkBytesUnchanged pins the graph re-base chunk's bytes,
// so a given graph state keeps its chunk key across builds: the engine's
// first checkpoint writes its graph's binary encoding, and golden bytes pin
// an escape-heavy graph and an empty one, which decode back to exactly
// those graphs. The JSON chunks earlier builds wrote for the same graphs
// stay inputs to the legacy decoder, which must rebuild what a JSON round
// trip of the graph gives (JSON replaces invalid UTF-8; binary keeps it).
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
		legacy string
	}{
		{"escapes", g,
			// magic, re-base flag, 4 nodes (ID, attrs), 2 edges (from, to, type, attrs), 0 ops.
			"\x00gr1\x01" + "\x04" +
				"\x06a<b>&c\x01\x04note\ta<b>&c\u2028" + "\bbad\xffutf8\x01\x04note\vbad\xffutf8\u2028" +
				"\vline\nbreak\x01\x01\x04note\x0eline\nbreak\x01\u2028" + "\x05plain\x00" + "\x02" +
				"\x06a<b>&c\x05plain\x03\x01\x03why\b<script>" + "\bbad\xffutf8\x05plain\x02\x00" + "\x00",
			`{"reset":{"nodes":[{"id":"a\u003cb\u003e\u0026c","attrs":{"note":"a\u003cb\u003e\u0026c\u2028"}},` +
				`{"id":"bad\ufffdutf8","attrs":{"note":"bad\ufffdutf8\u2028"}},{"id":"line\nbreak\u0001","attrs":{"note":"line\nbreak\u0001\u2028"}},` +
				`{"id":"plain"}],"edges":[{"from":"a\u003cb\u003e\u0026c","to":"plain","type":3,"attrs":{"why":"\u003cscript\u003e"}},` +
				`{"from":"bad\ufffdutf8","to":"plain","type":2}]}}`},
		{"empty", graph.New(), "\x00gr1\x01\x00\x00\x00", `{"reset":{"nodes":null,"edges":[]}}`},
	} {
		got, err := encodeGraphChunk(graphChunk{Reset: tc.g.Persist()})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.binary {
			t.Errorf("%s: re-base chunk bytes changed:\n got %q\nwant %q", tc.name, got, tc.binary)
		}
		for _, in := range []struct {
			form, data string
		}{{"binary", tc.binary}, {"legacy JSON", tc.legacy}} {
			gc, err := decodeGraphChunk([]byte(in.data))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, in.form, err)
			}
			if gc.Reset == nil || len(gc.Ops) != 0 {
				t.Fatalf("%s %s: decoded %+v, want a re-base without ops", tc.name, in.form, gc)
			}
			rebuilt, err := gc.Reset.Build()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, in.form, err)
			}
			want := tc.g.Persist()
			if in.form != "binary" {
				want = viaJSON(t, tc.g)
			}
			if got := rebuilt.Persist(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: rebuilt graph %+v, want %+v", tc.name, in.form, got, want)
			}
		}
	}
}

// toLegacyJSON re-encodes every chunk and artifact a manifest references
// the way stores were written before the binary chunk format — kv chunks,
// graph chunks, item values and artifacts as JSON — and returns the
// manifest over the re-keyed chunks with the blobs it needs, key-sorted.
func toLegacyJSON(t *testing.T, manifest []byte, st *castore.Store) ([]byte, []castore.Blob) {
	t.Helper()
	var man manifestSnapshot
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	sess := st.Session()
	blobs := make(map[string][]byte)
	put := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		key := castore.KeyOf(raw)
		blobs[key] = raw
		return key
	}
	for _, name := range sectionNames {
		refs := man.Sections[name]
		data, err := sess.Fetch(refs)
		if err != nil {
			t.Fatal(err)
		}
		legacy := make([]string, len(refs))
		for i, ref := range refs {
			if name == sectionGraph {
				gc, err := decodeGraphChunk(data[ref])
				if err != nil {
					t.Fatal(err)
				}
				legacy[i] = put(gc)
				continue
			}
			ch, err := decodeKVChunk(data[ref])
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range sortedRawKeys(ch.Set) {
				switch name {
				case sectionItems:
					it, err := decodeItem(ch.Set[k])
					if err != nil {
						t.Fatal(err)
					}
					raw, err := json.Marshal(it)
					if err != nil {
						t.Fatal(err)
					}
					ch.Set[k] = raw
				case sectionDataset:
					de, err := collect.DecodeEntry(ch.Set[k])
					if err != nil {
						t.Fatal(err)
					}
					if de.BlobRef == "" {
						continue
					}
					arts, err := sess.Fetch([]string{de.BlobRef})
					if err != nil {
						t.Fatal(err)
					}
					art, err := decodeArtifact(arts[de.BlobRef])
					if err != nil {
						t.Fatal(err)
					}
					ch.Set[k] = bytes.Replace(ch.Set[k], []byte(de.BlobRef), []byte(put(art)), 1)
				}
			}
			legacy[i] = put(ch)
		}
		man.Sections[name] = legacy
	}
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(blobs))
	for k := range blobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]castore.Blob, 0, len(keys))
	for _, k := range keys {
		out = append(out, castore.Blob{Key: k, Data: blobs[k]})
	}
	return raw, out
}

// TestSegmentedRestoreFromLegacyJSONSegment: a v5 manifest whose chunks and
// artifacts are JSON, sitting in a JSON segment written by an older store,
// restores to the live engine's digest. The restored engine then appends
// binary deltas to those JSON chains; the mixed chain restores to the live
// digest too, before and after a compaction rewrites the store.
func TestSegmentedRestoreFromLegacyJSONSegment(t *testing.T) {
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for _, b := range []Batch{
		{Entries: ds.Entries[:third], Reports: reps[:1], At: ds.CollectedAt},
		{Entries: ds.Entries[third : 2*third], Reports: reps[1:], At: ds.CollectedAt},
	} {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
	}

	// Write the JSON chain into one JSON segment, encoded exactly as the
	// JSON segment writer did.
	legacyManifest, blobs := toLegacyJSON(t, manifest.Bytes(), store)
	var seg struct {
		Hashes []string       `json:"hashes"`
		Blobs  []castore.Blob `json:"blobs"`
	}
	for _, b := range blobs {
		seg.Hashes = append(seg.Hashes, b.Key)
		seg.Blobs = append(seg.Blobs, b)
	}
	raw, err := json.Marshal(seg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := castore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Len() != len(blobs) {
		t.Fatalf("legacy store indexed %d blobs, want %d", legacy.Len(), len(blobs))
	}
	restored, err := RestoreEngineWithStore(bytes.NewReader(legacyManifest), legacy)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDigest(t, restored, eng, "legacy JSON segment")

	// One more batch on both engines: the restored one writes binary deltas
	// onto its JSON chains.
	last := Batch{Entries: ds.Entries[2*third:], At: ds.CollectedAt}
	for _, e := range []*Engine{eng, restored} {
		if _, err := e.Ingest(last); err != nil {
			t.Fatal(err)
		}
	}
	manifest.Reset()
	if err := restored.Snapshot(&manifest); err != nil {
		t.Fatal(err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{sectionGraph, sectionDataset, sectionItems} {
		refs := man.Sections[name]
		data, err := legacy.Fetch(refs)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) < 2 || data[refs[0]][0] != '{' || data[refs[len(refs)-1]][0] != 0 {
			t.Fatalf("section %s is not a JSON chain ending in a binary delta: %d chunks", name, len(refs))
		}
	}
	mixed, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), legacy)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDigest(t, mixed, eng, "mixed JSON and binary chain")

	live, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacy.Compact(live); err != nil {
		t.Fatal(err)
	}
	compacted, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), legacy)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	assertSameDigest(t, compacted, eng, "mixed chain after compaction")
}

package core

// Contracts under test for segmented (v5) checkpoints: a chain of delta
// checkpoints restores to exactly the state a monolithic snapshot would
// have captured; a monolithic v3/v4 snapshot restores into a store-backed
// engine byte-equivalently to the plain path (the upgrade road); version
// errors are explicit about what the reader needed; and compaction driven
// by CollectManifestRefs never strands a restorable manifest.

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

// engineStateBytes serialises the observable engine state deterministically:
// the full dataset export, the graph, and the report corpus. Two engines
// with equal state bytes are interchangeable for every read path.
func engineStateBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Dataset().WriteJSON(&buf, collect.ExportFull); err != nil {
		t.Fatal(err)
	}
	if err := e.Graph().G.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reps := e.Reports()
	sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
	if err := json.NewEncoder(&buf).Encode(reps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTestStore(t *testing.T) *castore.Store {
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
	if a, b := engineStateBytes(t, live), engineStateBytes(t, restored); !bytes.Equal(a, b) {
		t.Errorf("%s: state bytes differ from the live engine", label)
	}
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

// TestMonolithicRestoresIntoSegmentedEngine is the upgrade road: a v4
// monolithic snapshot restores through RestoreEngineWithStore
// byte-equivalently to the plain RestoreEngine path, and the store-backed
// engine then finishes the corpus and checkpoints segmentedly.
func TestMonolithicRestoresIntoSegmentedEngine(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Entries) / 2
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:half], Reports: reps[:1], At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var mono bytes.Buffer
	if err := eng.Snapshot(&mono); err != nil { // no store attached: v4 monolithic
		t.Fatal(err)
	}

	plain, err := RestoreEngine(bytes.NewReader(mono.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	store := openTestStore(t)
	segmented, err := RestoreEngineWithStore(bytes.NewReader(mono.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineStateBytes(t, plain), engineStateBytes(t, segmented); !bytes.Equal(a, b) {
		t.Fatal("v4 restored through the store differs from the plain restore")
	}
	if segmented.Store() != store {
		t.Fatal("store not attached after monolithic restore")
	}

	// First checkpoint after the upgrade re-bases everything into the store;
	// a fresh restore from it matches the finished corpus.
	if _, err := segmented.Ingest(Batch{Entries: ds.Entries[half:], Reports: reps[1:]}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := segmented.Snapshot(&manifest); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("upgrade checkpoint wrote no blobs to the store")
	}
	// The live upgraded engine finished the corpus by real ingest, so it
	// must match Build; the restore of its manifest must match it.
	assertEngineMatchesBuild(t, segmented, want, "upgraded-live")
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, restored, segmented, "upgraded-restored")
}

// TestRestoreVersionErrors pins the two refusal messages: a pre-v3 snapshot
// names the minimum supported version, and a v5 manifest fed to the
// monolithic reader points at RestoreEngineWithStore / -store.
func TestRestoreVersionErrors(t *testing.T) {
	_, err := RestoreEngine(strings.NewReader(`{"version":2}`))
	if err == nil {
		t.Fatal("RestoreEngine accepted a version-2 snapshot")
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

	// A real manifest through the wrong reader.
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
	_, err = RestoreEngine(bytes.NewReader(manifest.Bytes()))
	if err == nil {
		t.Fatal("RestoreEngine accepted a v5 manifest")
	}
	for _, want := range []string{"segmented manifest", "RestoreEngineWithStore", "-store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v5 error %q does not mention %q", err, want)
		}
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

// monolithicBytes renders an engine's state as a v4 monolithic snapshot,
// even when a store is attached, so restores can be compared byte for byte.
func monolithicBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.mu.Lock()
	st := e.store
	e.store = nil
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.store = st
		e.mu.Unlock()
	}()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreAt restores a manifest with GOMAXPROCS set to procs.
func restoreAt(procs int, manifest []byte, st *castore.Store) (*Engine, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return RestoreEngineWithStore(bytes.NewReader(manifest), st)
}

// TestSegmentedRestoreParallelMatchesSequential: the restore decodes its
// sections concurrently, so it must reproduce the same engine at any
// GOMAXPROCS — the same v4 snapshot bytes as the live engine, the same
// chunk logs — and a damaged manifest must fail with the same error, the
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
	setChunk, _ := json.Marshal(kvChunk{Set: map[string]json.RawMessage{bogus: json.RawMessage(`[]`)}})
	delChunk, _ := json.Marshal(kvChunk{Del: []string{bogus}})
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
	want := monolithicBytes(t, eng)
	var first *Engine
	for _, procs := range []int{1, 8} {
		got, err := restoreAt(procs, good, store)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(monolithicBytes(t, got), want) {
			t.Fatalf("GOMAXPROCS=%d: restored v4 snapshot bytes differ from the live engine's", procs)
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

// legacyGraphChunk is the graph chunk shape written before the re-base was
// encoded in place: graph.WriteJSON output nested as a raw JSON value.
type legacyGraphChunk struct {
	Reset json.RawMessage `json:"reset,omitempty"`
	Ops   []graph.Op      `json:"ops,omitempty"`
}

// legacyRebaseChunk renders g's re-base chunk the way older checkpoints did.
func legacyRebaseChunk(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(legacyGraphChunk{Reset: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGraphRebaseChunkBytesUnchanged pins the graph re-base chunk to the
// bytes the nested WriteJSON encoding produced, so a given graph state keeps
// its chunk key: checkpoints written before and after the in-place encoding
// dedupe against each other in the store.
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
	if want := legacyRebaseChunk(t, eng.Graph().G); !bytes.Equal(got[refs[0]], want) {
		t.Fatalf("re-base chunk bytes changed:\n got %.200s\nwant %.200s", got[refs[0]], want)
	}

	// Strings the encoder escapes (HTML-significant runes, control bytes,
	// U+2028, invalid UTF-8), an attribute-free node and an empty graph,
	// against golden bytes of the nested encoding.
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
		name string
		g    *graph.Graph
		want string
	}{
		{"escapes", g, `{"reset":{"nodes":[{"id":"a\u003cb\u003e\u0026c","attrs":{"note":"a\u003cb\u003e\u0026c\u2028"}},` +
			`{"id":"bad\ufffdutf8","attrs":{"note":"bad\ufffdutf8\u2028"}},{"id":"line\nbreak\u0001","attrs":{"note":"line\nbreak\u0001\u2028"}},` +
			`{"id":"plain"}],"edges":[{"from":"a\u003cb\u003e\u0026c","to":"plain","type":3,"attrs":{"why":"\u003cscript\u003e"}},` +
			`{"from":"bad\ufffdutf8","to":"plain","type":2}]}}`},
		{"empty", graph.New(), `{"reset":{"nodes":null,"edges":[]}}`},
	} {
		got, err := json.Marshal(graphChunk{Reset: tc.g.Persist()})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: re-base chunk bytes changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestSegmentedRestoreFromLegacyJSONSegment: a v5 manifest whose chunks and
// artifacts sit in a JSON segment written by an older store restores to the
// same v4 snapshot bytes as the live engine.
func TestSegmentedRestoreFromLegacyJSONSegment(t *testing.T) {
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	half := len(ds.Entries) / 2
	var manifest bytes.Buffer
	for _, b := range []Batch{
		{Entries: ds.Entries[:half], Reports: reps[:1], At: ds.CollectedAt},
		{Entries: ds.Entries[half:], Reports: reps[1:], At: ds.CollectedAt},
	} {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest); err != nil {
			t.Fatal(err)
		}
	}

	// Re-home every blob the manifest needs into one JSON segment, encoded
	// exactly as the JSON segment writer did.
	live, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	data, err := store.Fetch(keys)
	if err != nil {
		t.Fatal(err)
	}
	var seg struct {
		Hashes []string       `json:"hashes"`
		Blobs  []castore.Blob `json:"blobs"`
	}
	for _, k := range keys {
		seg.Hashes = append(seg.Hashes, k)
		seg.Blobs = append(seg.Blobs, castore.Blob{Key: k, Data: data[k]})
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
	if legacy.Len() != len(keys) {
		t.Fatalf("legacy store indexed %d blobs, want %d", legacy.Len(), len(keys))
	}
	restored, err := RestoreEngineWithStore(bytes.NewReader(manifest.Bytes()), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monolithicBytes(t, restored), monolithicBytes(t, eng)) {
		t.Fatal("restore from a JSON segment differs from the live engine's v4 snapshot bytes")
	}
}

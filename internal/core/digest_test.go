package core

// Contracts under test for Engine.Digest, the equivalence oracle: each
// section's digest moves exactly when that section's state does, and the
// one restore entry point never panics on hostile bytes.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/textsim"
)

// TestDigestNamesChangedSection drops one piece of state per section from a
// copy of the same engine and requires the digest diff to be exactly that
// section.
func TestDigestNamesChangedSection(t *testing.T) {
	ds, reps := miniDataset(t)
	fresh := func() *Engine {
		e := NewEngine(DefaultConfig())
		if _, err := e.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := digestOf(t, fresh())
	wantNames := []string{"config", "dataset", "graph", "imports", "items", "posting", "reports"}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("digest sections = %v, want %v", names, wantNames)
	}
	if again := digestOf(t, fresh()); !reflect.DeepEqual(again, base) {
		t.Fatalf("digest of an identical engine differs in %v", digestDiff(again, base))
	}

	for _, tc := range []struct {
		section string
		mutate  func(t *testing.T, e *Engine)
	}{
		{"graph", func(t *testing.T, e *Engine) {
			for _, ed := range e.mg.G.Edges() {
				if len(ed.Attrs) == 0 {
					continue
				}
				keys := make([]string, 0, len(ed.Attrs))
				attrs := make(graph.Attrs, len(ed.Attrs))
				for k, v := range ed.Attrs {
					keys = append(keys, k)
					attrs[k] = v
				}
				sort.Strings(keys)
				delete(attrs, keys[0])
				if !e.mg.G.RemoveEdge(ed.From, ed.To, ed.Type) {
					t.Fatalf("edge %s-%s vanished", ed.From, ed.To)
				}
				if err := e.mg.G.AddEdge(ed.From, ed.To, ed.Type, attrs); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Fatal("no edge carries attrs")
		}},
		{"items", func(t *testing.T, e *Engine) {
			var ecos []ecosys.Ecosystem
			for eco, sh := range e.shards {
				if sh.lsh.Len() > 0 {
					ecos = append(ecos, eco)
				}
			}
			if len(ecos) == 0 {
				t.Fatal("no shard holds items")
			}
			sort.Slice(ecos, func(i, j int) bool { return ecos[i] < ecos[j] })
			sh := e.shards[ecos[0]]
			lsh := textsim.NewLSHIndex(e.cfg.Cluster)
			for _, it := range sh.lsh.Items()[1:] {
				lsh.Add(it.ID, it.Hash, it.Vector)
			}
			sh.lsh = lsh
		}},
		{"imports", func(t *testing.T, e *Engine) {
			sh := e.shards[ecosys.PyPI]
			delete(sh.importers, firstKey(t, sh.importers))
		}},
		{"posting", func(t *testing.T, e *Engine) {
			keys := e.mg.reportsByPkg.Keys()
			if len(keys) == 0 {
				t.Fatal("empty report index")
			}
			e.mg.reportsByPkg.Delete(keys[0])
		}},
	} {
		e := fresh()
		tc.mutate(t, e)
		if diff := digestDiff(digestOf(t, e), base); !reflect.DeepEqual(diff, []string{tc.section}) {
			t.Errorf("dropping %s state changed digest sections %v, want [%s]", tc.section, diff, tc.section)
		}
	}
}

// TestDigestGraphIsOrderFree: the graph section hashes the graph as a set.
// The same edges inserted in reverse order, each undirected one with its
// endpoints swapped, leave every section unchanged; a Dependency edge with
// its direction flipped, or an edge with its attribute values changed,
// changes the graph section and only it.
func TestDigestGraphIsOrderFree(t *testing.T) {
	ds, reps := miniDataset(t)
	fresh := func() *Engine {
		return reference(t, DefaultConfig(), Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt})
	}
	base := digestOf(t, fresh())
	// first returns the index of the first edge pred holds for.
	first := func(t *testing.T, edges []graph.Edge, pred func(graph.Edge) bool) int {
		for i, ed := range edges {
			if pred(ed) {
				return i
			}
		}
		t.Fatal("no edge matches")
		return -1
	}
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, edges []graph.Edge)
		want []string
	}{
		{"reversed and re-oriented", func(t *testing.T, edges []graph.Edge) {
			slices.Reverse(edges)
			swapped := 0
			for i := range edges {
				if edges[i].Type != graph.Dependency {
					edges[i].From, edges[i].To = edges[i].To, edges[i].From
					swapped++
				}
			}
			if swapped == 0 || swapped == len(edges) {
				t.Fatalf("%d of %d edges undirected, want both kinds", swapped, len(edges))
			}
		}, nil},
		{"dependency flipped", func(t *testing.T, edges []graph.Edge) {
			i := first(t, edges, func(ed graph.Edge) bool { return ed.Type == graph.Dependency })
			edges[i].From, edges[i].To = edges[i].To, edges[i].From
		}, []string{"graph"}},
		{"attribute changed", func(t *testing.T, edges []graph.Edge) {
			i := first(t, edges, func(ed graph.Edge) bool { return len(ed.Attrs) > 0 })
			attrs := make(graph.Attrs, len(edges[i].Attrs))
			for k, v := range edges[i].Attrs {
				attrs[k] = v + "'"
			}
			edges[i].Attrs = attrs // Persist shares the graph's maps: replace, never write
		}, []string{"graph"}},
	} {
		e := fresh()
		p := e.mg.G.Persist()
		tc.edit(t, p.Edges)
		g := graph.New()
		for _, n := range p.Nodes {
			if err := g.AddNode(n.ID, n.Attrs); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, ed := range p.Edges {
			if err := g.AddEdge(ed.From, ed.To, ed.Type, ed.Attrs); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		e.mg.G = g
		if diff := digestDiff(digestOf(t, e), base); !reflect.DeepEqual(diff, tc.want) {
			t.Errorf("%s: digest sections %v changed, want %v", tc.name, diff, tc.want)
		}
	}
}

// firstKey returns m's smallest key.
func firstKey[V any](t *testing.T, m map[string]V) string {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("empty map")
	}
	sort.Strings(keys)
	return keys[0]
}

// FuzzRestoreEngineWithStore feeds arbitrary snapshot bytes to the one
// restore entry point and to CollectManifestRefs, against a store holding a
// real three-checkpoint chain, each manifest stamped: no input panics
// either, an input the restore accepts is a v5 to v9 manifest, the engine
// it gives has a digest, the stamps it returns are the manifest's
// appliedSeq, feedPos and feedBatches, and CollectManifestRefs accepts it
// too, listing exactly the restored engine's LiveRefs. Seeds: v2, v3 and
// v4 snapshot headers (each refused), the chain's v9 manifests, a manifest
// naming a dataset chunk the store does not hold, the last manifest
// rewritten as v6 (asV6Manifest) and as v5 (asV5Manifest), a minimal v9
// manifest of an empty engine, the last manifest rewritten as v7 with
// garbage graph and items chains (asV7Manifest) and as v8 with a header
// perSource member holding a non-canonical key (asV8Manifest), the last
// manifest with a superseded artifact blob (withSupersededBlob) and with
// tampered artifacts (withTamperedArtifacts).
func FuzzRestoreEngineWithStore(f *testing.F) {
	for v := 2; v <= 4; v++ {
		f.Add([]byte(monolithicHeaders[v]))
	}

	ds, reps := miniDataset(f)
	store := openTestStore(f)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for i, hi := range []int{third, 2 * third, len(ds.Entries)} {
		b := Batch{Entries: ds.Entries[i*third : hi], At: ds.CollectedAt}
		if i < len(reps) {
			b.Reports = reps[i : i+1]
		}
		if _, err := eng.Ingest(b); err != nil {
			f.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Snapshot(&manifest, Stamps{AppliedSeq: uint64(i + 1), FeedPos: i + 1, FeedBatches: 3}); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(manifest.Bytes()))
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		f.Fatal(err)
	}
	man.Sections[sectionDataset] = append(man.Sections[sectionDataset], castore.KeyOf([]byte("not in the store")))
	unknown, err := json.Marshal(man)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unknown)
	f.Add(asV6Manifest(f, manifest.Bytes(), store))
	f.Add(asV5Manifest(f, manifest.Bytes(), store))
	f.Add([]byte(`{"version":9,"config":{},"datasetHeader":{"collectedAt":"0001-01-01T00:00:00Z"},"sections":{"dataset":[],"reports":[]}}`))
	f.Add(asV7Manifest(f, manifest.Bytes(), store))
	f.Add(asV8Manifest(f, manifest.Bytes(), store))
	superseded, _ := withSupersededBlob(f, manifest.Bytes(), store)
	f.Add(superseded)
	tampered, _ := withTamperedArtifacts(f, manifest.Bytes(), store)
	f.Add(tampered)

	f.Fuzz(func(t *testing.T, raw []byte) {
		refs, refsErr := CollectManifestRefs(bytes.NewReader(raw), store)
		e, stamps, err := RestoreEngineWithStore(bytes.NewReader(raw), store)
		if err != nil {
			return
		}
		var head struct {
			Version     int    `json:"version"`
			AppliedSeq  uint64 `json:"appliedSeq"`
			FeedPos     int    `json:"feedPos"`
			FeedBatches int    `json:"feedBatches"`
		}
		if err := json.Unmarshal(raw, &head); err != nil || head.Version < 5 || head.Version > 9 {
			t.Fatalf("restore accepted an unreadable snapshot (version %d, %v): %.80q", head.Version, err, raw)
		}
		if want := (Stamps{head.AppliedSeq, head.FeedPos, head.FeedBatches}); stamps != want {
			t.Fatalf("restore returned stamps %+v, the manifest holds %+v", stamps, want)
		}
		if _, err := e.Digest(); err != nil {
			t.Fatalf("restored engine has no digest: %v", err)
		}
		if refsErr != nil {
			t.Fatalf("restore accepted a manifest CollectManifestRefs refused: %v", refsErr)
		}
		if live := e.LiveRefs(); !reflect.DeepEqual(refs, live) {
			t.Fatalf("CollectManifestRefs lists %d refs, the restored engine's LiveRefs %d; want the same set", len(refs), len(live))
		}
	})
}

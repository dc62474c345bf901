package malgraph

// Tests for the external ingest path (ISSUE 3): raw observations resolved
// through Pipeline.AppendExternal, in any batch partition, must yield
// Results bit-identical to a one-shot build of the same world — the same
// determinism contract the feed replay satisfies, now starting from the raw
// scheduler records an external publisher would POST instead of from
// pre-resolved entries.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/xrand"
)

// TestExternalObservationsMatchOneShot delivers the world's raw observation
// stream through AppendExternal in shuffled partitions of k batches.
// Shuffling at observation (not entry) granularity splits coordinates
// mid-merge across batches — a source-carried artifact may arrive after the
// entry was already created from name-only observations, or after a mirror
// recovery — exercising the resolver's telescoping accounting and the
// availability-upgrade merge.
func TestExternalObservationsMatchOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.05
	batch, want := oneShot(t, scale)

	for _, k := range []int{1, 3, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
			if err != nil {
				t.Fatal(err)
			}
			obs := collect.ObservationsFromSources(p.World.Sources)
			if len(obs) == 0 {
				t.Fatal("world produced no observations")
			}
			rng := xrand.New(uint64(2000 + k))
			for i := len(obs) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				obs[i], obs[j] = obs[j], obs[i]
			}
			_, reportCorpus := p.Source()
			for bi := 0; bi < k; bi++ {
				lo, hi := bi*len(obs)/k, (bi+1)*len(obs)/k
				rlo, rhi := bi*len(reportCorpus)/k, (bi+1)*len(reportCorpus)/k
				if _, _, err := p.AppendExternal(obs[lo:hi], reportCorpus[rlo:rhi]); err != nil {
					t.Fatalf("append external batch %d: %v", bi, err)
				}
			}
			got, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			assertSameState(t, p.Engine, batch.Engine, fmt.Sprintf("external k=%d", k))
			assertResultsEqual(t, got, want, fmt.Sprintf("external k=%d", k))
		})
	}
}

// TestExternalDuplicateDeliveryIdempotent re-POSTs the same observations:
// the second delivery must change nothing — neither the dataset, nor the
// per-source accounting, nor the graph.
func TestExternalDuplicateDeliveryIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := collect.ObservationsFromSources(p.World.Sources)
	if _, _, err := p.AppendExternal(obs, nil); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	perSource := p.Engine.Dataset().SourceStats()
	st, _, err := p.AppendExternal(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewEntries != 0 || st.UpdatedEntries != 0 || st.NewArtifacts != 0 {
		t.Fatalf("duplicate delivery changed the dataset: %+v", st)
	}
	after := p.Stats()
	if before.Entries != after.Entries || before.Edges != after.Edges || before.Nodes != after.Nodes {
		t.Fatalf("duplicate delivery changed the graph: %+v vs %+v", before, after)
	}
	if got := p.Engine.Dataset().SourceStats(); !reflect.DeepEqual(got, perSource) {
		t.Fatalf("duplicate delivery changed the accounting: %+v vs %+v", perSource, got)
	}
}

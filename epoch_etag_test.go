package malgraph

// The clean-epoch contract /api/v1/results revalidates on: a push that
// changes nothing still publishes an epoch, and that epoch serves the
// previous computation verbatim — same ETag, same serialized bytes.

import (
	"context"
	"testing"

	"malgraph/internal/collect"
)

// TestResultsETagCleanEpoch pushes half of the seed-1, scale-0.05
// observation stream, re-sends the same half (a no-op) and then the rest.
// The no-op must publish a new epoch with the same ETag whose ResultsJSON
// returns the same backing bytes; the changing push must move the tag.
func TestResultsETagCleanEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := collect.ObservationsFromSources(p.World.Sources)
	half := obs[:len(obs)/2]
	if _, _, err := p.AppendExternal(half, nil); err != nil {
		t.Fatal(err)
	}
	first := p.CurrentEpoch()
	body, err := first.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}

	st, _, err := p.AppendExternal(half, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewEntries != 0 || st.UpdatedEntries != 0 {
		t.Fatalf("re-sent half is not a no-op: %d new, %d updated", st.NewEntries, st.UpdatedEntries)
	}
	clean := p.CurrentEpoch()
	if clean.ID() <= first.ID() {
		t.Fatalf("no-op push published no epoch: still epoch %d", clean.ID())
	}
	if clean.ETag() != first.ETag() {
		t.Fatalf("no-op push moved the ETag: %s → %s", first.ETag(), clean.ETag())
	}
	again, err := clean.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(body) || &again[0] != &body[0] {
		t.Fatal("clean epoch re-serialized its Results instead of sharing the bytes")
	}

	if _, _, err := p.AppendExternal(obs[len(obs)/2:], nil); err != nil {
		t.Fatal(err)
	}
	if last := p.CurrentEpoch(); last.ETag() == first.ETag() {
		t.Fatalf("changing push kept the ETag %s", last.ETag())
	}
}

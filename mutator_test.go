package malgraph

// Mutator contract tests: every public mutator goes through the one
// journal → apply → commit funnel, so all of them must share its failure
// and publish behaviour — a journal failure changes nothing observable, and
// a successful call publishes exactly one new epoch.

import (
	"context"
	"errors"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/faultinject"
	"malgraph/internal/wal"
)

// mutatorState is what a failed mutator must leave untouched.
type mutatorState struct {
	seq, epoch uint64
	pending    int
	entries    int
}

func stateOf(p *Pipeline) mutatorState {
	return mutatorState{
		seq:     p.LastSeq(),
		epoch:   p.CurrentEpoch().ID(),
		pending: p.PendingBatches(),
		entries: p.CurrentEpoch().Stats().Entries,
	}
}

// journaledPipeline builds a small streaming pipeline with a journal on a
// fault-injecting filesystem attached.
func journaledPipeline(t *testing.T, batches int) (*Pipeline, *faultinject.FS) {
	t.Helper()
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.02}, batches)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultinject.NewFS(nil)
	j, err := wal.Open(t.TempDir(), fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	p.AttachJournal(j)
	return p, fs
}

// liveMutators names each live journalable mutator as a one-call closure.
func liveMutators(p *Pipeline) []struct {
	name string
	call func() error
} {
	obs := collect.ObservationsFromSources(p.World.Sources)[:8]
	return []struct {
		name string
		call func() error
	}{
		{"AppendNext", func() error { _, _, err := p.AppendNext(); return err }},
		{"AppendPending(1,false)", func() error { _, _, _, err := p.AppendPending(1, false); return err }},
		{"AppendExternal", func() error { _, _, err := p.AppendExternal(obs, nil); return err }},
	}
}

func TestMutatorJournalFailureChangesNothing(t *testing.T) {
	p, fs := journaledPipeline(t, 4)
	for _, m := range liveMutators(p) {
		before := stateOf(p)
		fs.FailSync(1)
		if err := m.call(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: err %v, want the injected fsync failure", m.name, err)
		}
		if after := stateOf(p); after != before {
			t.Fatalf("%s: failed journal changed state %+v → %+v", m.name, before, after)
		}
	}
	// The rolled-back journal stays usable: the next ingest takes seq 1.
	if _, ok, err := p.AppendNext(); err != nil || !ok {
		t.Fatalf("ingest after failures: ok=%v err=%v", ok, err)
	}
	if p.LastSeq() != 1 {
		t.Fatalf("seq after failures = %d, want 1", p.LastSeq())
	}
}

func TestMutatorSuccessPublishesOneEpoch(t *testing.T) {
	p, _ := journaledPipeline(t, 5)
	calls := append(liveMutators(p), struct {
		name string
		call func() error
	}{"AppendPending(-1,false)", func() error {
		stats, _, _, err := p.AppendPending(-1, false)
		if err == nil && len(stats) != 3 {
			t.Fatalf("drain ingested %d batches, want 3", len(stats))
		}
		return err
	}})
	wantSeq := uint64(0)
	for _, m := range calls {
		before := stateOf(p)
		if err := m.call(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		after := stateOf(p)
		if after.epoch != before.epoch+1 {
			t.Fatalf("%s: epoch %d → %d, want exactly one publish", m.name, before.epoch, after.epoch)
		}
		wantSeq += uint64(before.pending - after.pending)
		if m.name == "AppendExternal" {
			wantSeq++
		}
		if after.seq != wantSeq {
			t.Fatalf("%s: seq %d, want %d (one per journaled record)", m.name, after.seq, wantSeq)
		}
	}
	if p.PendingBatches() != 0 {
		t.Fatalf("%d batches still pending after the drain", p.PendingBatches())
	}
}

// TestMutatorAppendRefusesRawBatchWhenJournaled: a raw core.Batch has no
// journal record kind, so on a journaled pipeline Append must refuse rather
// than apply a batch a crash would silently lose.
func TestMutatorAppendRefusesRawBatchWhenJournaled(t *testing.T) {
	p, _ := journaledPipeline(t, 2)
	ds, reps := p.Source()
	before := stateOf(p)
	nodes := p.Stats().Nodes
	if _, err := p.Append(BatchFeed(ds, reps, 2)[0]); err == nil {
		t.Fatal("Append applied an unjournalable batch on a journaled pipeline")
	}
	if after := stateOf(p); after != before {
		t.Fatalf("refused Append changed state %+v → %+v", before, after)
	}
	if n := len(p.Engine.Dataset().Entries); n != 0 || p.Engine.Graph().G.NodeCount() != nodes {
		t.Fatalf("refused Append mutated the engine: %d entries, %d nodes", n, p.Engine.Graph().G.NodeCount())
	}
}

package malgraph

// Durability tests (ISSUE 6): recovery from last snapshot + WAL suffix must
// be bit-identical to the engine that never died. The crash matrix kills the
// pipeline at every journal record boundary (plus torn half-record tails),
// recovers a fresh pipeline from the surviving bytes, re-delivers the rest
// of the script, and requires the state (every Engine.Digest section) and
// Results of the uninterrupted reference run. A second suite replays a
// shuffled external delivery from the journal alone and requires one-shot
// equality — the batch-partition equivalence contract extended across
// process death.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
	"malgraph/internal/xrand"
)

// SnapshotEngine checkpoints the engine as a manifest to w over the
// attached store without truncating the journal — a snapshot taken
// mid-stream, stamped with the last applied sequence, so a recovery test
// can restore it and replay only the journal suffix past the stamp.
func (p *Pipeline) SnapshotEngine(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotEngineLocked(w)
}

// journalBytes reads the raw journal file so the crash matrix can replant
// byte-exact prefixes of it.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// adoptSnapshot restores a checkpoint manifest against its content store
// and adopts the engine into p, the way a warm restart does.
func adoptSnapshot(t *testing.T, p *Pipeline, r io.Reader, st *castore.Store) {
	t.Helper()
	eng, stamps, err := core.RestoreEngineWithStore(r, st)
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	p.AdoptEngine(eng, stamps)
}

// openStore opens (or reopens) the content store in dir.
func openStore(t testing.TB, dir string) *castore.Store {
	t.Helper()
	st, err := castore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// decoupledObservations round-trips observations through JSON — the same
// copy the HTTP inlet and the journal itself perform — so recovery
// pipelines never share artifact pointers with the reference world.
func decoupledObservations(t *testing.T, obs []collect.Observation) []collect.Observation {
	t.Helper()
	raw, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	var out []collect.Observation
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// deliveryScript is the fixed interleaving of feed and external ingests the
// crash matrix replays: step i produces journal record i+1. The same script
// runs against the reference pipeline and, suffix-wise, against every
// recovered pipeline — re-delivery after a crash is the client resuming
// from its last acknowledged batch. Two steps push observations bodies
// (AppendObservationsJSON, journaled as received): one as json.Marshal
// writes it, one in the non-canonical spelling observationsBody writes.
func deliveryScript(p *Pipeline, obs []collect.Observation, reps []*reports.Report) []func() error {
	feedStep := func() error {
		_, ok, err := p.AppendNext()
		if err == nil && !ok {
			return fmt.Errorf("feed exhausted early")
		}
		return err
	}
	q := len(obs) / 4
	extStep := func(o []collect.Observation, r []*reports.Report) func() error {
		return func() error {
			_, _, err := p.AppendExternal(o, r)
			return err
		}
	}
	bodyStep := func(body []byte, err error) func() error {
		return func() error {
			if err != nil {
				return err
			}
			_, _, _, err := p.AppendObservationsJSON(body)
			return err
		}
	}
	canonical, err := json.Marshal(map[string]any{"observations": obs[q : 2*q]})
	return []func() error{
		feedStep,
		extStep(obs[:q], reps[:1]),
		bodyStep(canonical, err),
		feedStep,
		bodyStep(observationsBody(obs[2*q : 3*q])),
		extStep(obs[3*q:], reps[1:2]),
		feedStep,
		feedStep,
	}
}

// observationsBody spells a push body the way no encoder would, but
// DecodeObservations accepts: members in reverse order, extra whitespace,
// an escaped member name, an unknown member, and "artifact":null where
// the observation carries none.
func observationsBody(obs []collect.Observation) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{ \"note\" : { \"unknown\" : [ 1 , true ] } ,\n  \"observations\" : [\n")
	for i, o := range obs {
		art, err := json.Marshal(o.Artifact) // null for none
		if err != nil {
			return nil, err
		}
		at, err := json.Marshal(o.ObservedAt)
		if err != nil {
			return nil, err
		}
		coord, err := json.Marshal(o.Coord)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b.WriteString(" ,\n")
		}
		fmt.Fprintf(&b, "\t{ \"extra\" : \"x\" , \"artifact\" : %s ,\r\n\t  \"observedAt\" : %s , \"coord\" : %s , \"\\u0073ource\" : %d }",
			art, at, coord, o.Source)
	}
	b.WriteString("\n] }\n")
	return b.Bytes(), nil
}

// TestCrashRecoveryMatrixMatchesUninterrupted is the tentpole acceptance
// test: a journaled pipeline is killed after every record boundary (and at
// torn mid-record offsets), recovered from the latest snapshot at or below
// the kill point plus the surviving journal bytes, and driven through the
// remainder of the delivery script. Every recovery must land on the
// reference run's state; clean-boundary kills must also match its full
// Results.
func TestCrashRecoveryMatrixMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.02
	cfg := Config{Scale: scale}
	const feedBatches = 4

	// Reference run: journaled, never killed, snapshots taken mid-stream so
	// later kill points recover from snapshot + suffix instead of a cold
	// journal-only replay.
	refDir := t.TempDir()
	pRef, err := NewStreamingPipeline(context.Background(), cfg, feedBatches)
	if err != nil {
		t.Fatal(err)
	}
	jRef, err := wal.Open(refDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pRef.AttachJournal(jRef)
	refStore := openStore(t, filepath.Join(refDir, "store"))
	pRef.AttachStore(refStore)

	obs := decoupledObservations(t, collect.ObservationsFromSources(pRef.World.Sources))
	_, reportCorpus := pRef.Source()
	if len(reportCorpus) < 2 {
		t.Fatalf("report corpus too small: %d", len(reportCorpus))
	}

	script := deliveryScript(pRef, obs, reportCorpus)
	records := len(script)
	sizes := make([]int64, records+1) // sizes[i] = journal bytes after i records
	snaps := map[uint64][]byte{}      // snapshot bytes keyed by AppliedSeq
	for i, step := range script {
		if err := step(); err != nil {
			t.Fatalf("reference step %d: %v", i+1, err)
		}
		sizes[i+1] = jRef.Size()
		if seq := pRef.LastSeq(); seq != uint64(i+1) {
			t.Fatalf("reference seq after step %d = %d", i+1, seq)
		}
		// Snapshot after records 2 and 4: kill points 0-1 recover cold,
		// 2-3 from snapshot@2 + suffix, 4-8 from snapshot@4 + suffix.
		if i+1 == 2 || i+1 == 4 {
			var buf bytes.Buffer
			if err := pRef.SnapshotEngine(&buf); err != nil {
				t.Fatal(err)
			}
			snaps[uint64(i+1)] = buf.Bytes()
		}
	}
	refRes, err := pRef.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := jRef.Close(); err != nil {
		t.Fatal(err)
	}
	full := journalBytes(t, refDir)
	if int64(len(full)) != sizes[records] {
		t.Fatalf("journal file %d bytes, log reports %d", len(full), sizes[records])
	}

	recoverAt := func(t *testing.T, cut int64, durable int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := NewStreamingPipeline(context.Background(), cfg, feedBatches)
		if err != nil {
			t.Fatal(err)
		}
		// Latest snapshot at or below the kill point, exactly as serve
		// picks its -snapshot file.
		var snapSeq uint64
		for seq := range snaps {
			if seq <= uint64(durable) && seq > snapSeq {
				snapSeq = seq
			}
		}
		if snapSeq > 0 {
			adoptSnapshot(t, p, bytes.NewReader(snaps[snapSeq]), refStore)
			if p.LastSeq() != snapSeq {
				t.Fatalf("restored seq %d, want %d", p.LastSeq(), snapSeq)
			}
		}
		j, err := wal.Open(dir, nil)
		if err != nil {
			t.Fatalf("open truncated journal: %v", err)
		}
		defer j.Close()
		applied, err := p.ReplayJournal(j)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if want := durable - int(snapSeq); applied != want {
			t.Fatalf("replay applied %d records, want %d (snapshot@%d)", applied, want, snapSeq)
		}
		if p.LastSeq() != uint64(durable) {
			t.Fatalf("recovered seq %d, want %d", p.LastSeq(), durable)
		}
		p.AttachJournal(j)

		// Re-deliver everything past the last durable record — the loader
		// resuming from its last acknowledged sequence.
		for i := durable; i < records; i++ {
			if err := deliveryScript(p, obs, reportCorpus)[i](); err != nil {
				t.Fatalf("re-deliver step %d: %v", i+1, err)
			}
		}
		if p.LastSeq() != uint64(records) {
			t.Fatalf("final seq %d, want %d", p.LastSeq(), records)
		}
		assertSameState(t, p.Engine, pRef.Engine, fmt.Sprintf("kill@%d", durable))
		if cut == sizes[durable] { // clean boundary: pin full Results too
			got, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, got, refRes, fmt.Sprintf("kill@%d", durable))
		}
	}

	for durable := 0; durable <= records; durable++ {
		t.Run(fmt.Sprintf("boundary=%d", durable), func(t *testing.T) {
			recoverAt(t, sizes[durable], durable)
		})
		// Torn tail: the crash landed mid-write of record durable+1. The
		// half-written record must be truncated away, recovering exactly
		// the durable prefix.
		if durable < records {
			t.Run(fmt.Sprintf("torn=%d", durable), func(t *testing.T) {
				recoverAt(t, sizes[durable]+(sizes[durable+1]-sizes[durable])/2, durable)
			})
		}
	}
}

// TestJournaledShuffledReplayMatchesOneShot delivers the corpus as shuffled
// external batches through a journaled pipeline, then recovers a fresh
// pipeline from the journal alone (no snapshot, total process loss) and
// requires one-shot-equal Results: replay is just another batch partition.
func TestJournaledShuffledReplayMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.02
	_, want := oneShot(t, scale)

	dir := t.TempDir()
	p1, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1.AttachJournal(j1)

	obs := decoupledObservations(t, collect.ObservationsFromSources(p1.World.Sources))
	_, reportCorpus := p1.Source()
	rng := xrand.New(6006)
	for i := len(obs) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		obs[i], obs[j] = obs[j], obs[i]
	}
	const k = 5
	for i := 0; i < k; i++ {
		lo, hi := i*len(obs)/k, (i+1)*len(obs)/k
		rlo, rhi := i*len(reportCorpus)/k, (i+1)*len(reportCorpus)/k
		if _, _, err := p1.AppendExternal(obs[lo:hi], reportCorpus[rlo:rhi]); err != nil {
			t.Fatalf("shuffled external batch %d: %v", i+1, err)
		}
	}
	liveRes, err := p1.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, liveRes, want, "shuffled external (pre-crash)")
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Total process loss: a fresh pipeline, the journal the only survivor.
	p2, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	applied, err := p2.ReplayJournal(j2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if applied != k {
		t.Fatalf("replay applied %d records, want %d", applied, k)
	}
	if p2.LastSeq() != uint64(k) {
		t.Fatalf("recovered seq %d, want %d", p2.LastSeq(), k)
	}
	got, err := p2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, p2.Engine, p1.Engine, "journal replay")
	assertResultsEqual(t, got, want, "journal replay vs one-shot")
}

// TestCheckpointConcurrentWithIngestLosesNothing pins the atomicity of
// Pipeline.Checkpoint: the journal truncation happens under the same lock
// that stamps the snapshot's AppliedSeq, so a batch journaled by a
// concurrent pusher can never land between the stamp and the truncate and
// be destroyed. Pushers hammer AppendExternal while a checkpointer loops
// as fast as it can; afterwards, recovery from the last checkpoint plus
// the surviving journal must reproduce every acknowledged batch.
func TestCheckpointConcurrentWithIngestLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.02
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.json")

	p1, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := wal.Open(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p1.AttachJournal(j1)
	p1.AttachStore(openStore(t, filepath.Join(dir, "store")))

	obs := decoupledObservations(t, collect.ObservationsFromSources(p1.World.Sources))
	_, reportCorpus := p1.Source()

	// The test's persist: buffer the locked snapshot, then replace the file
	// whole — recovery below only ever reads a complete checkpoint.
	persist := func(snapshot func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := snapshot(&buf); err != nil {
			return err
		}
		return os.WriteFile(snapPath, buf.Bytes(), 0o644)
	}

	const pushers, perPusher = 4, 3
	records := pushers * perPusher
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
			}
			if _, err := p1.Checkpoint(persist); err != nil {
				ckptDone <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	fail := make(chan error, records)
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				b := g*perPusher + i
				lo, hi := b*len(obs)/records, (b+1)*len(obs)/records
				rlo, rhi := b*len(reportCorpus)/records, (b+1)*len(reportCorpus)/records
				if _, _, err := p1.AppendExternal(obs[lo:hi], reportCorpus[rlo:rhi]); err != nil {
					fail <- fmt.Errorf("pusher %d batch %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpointer: %v", err)
	}
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	finalSeq := p1.LastSeq()
	if finalSeq != uint64(records) {
		t.Fatalf("live seq %d, want %d", finalSeq, records)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: recover from the last checkpoint plus whatever the journal
	// still holds. Every acknowledged batch must be there.
	p2, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(snapPath); err == nil {
		adoptSnapshot(t, p2, bytes.NewReader(snap), openStore(t, filepath.Join(dir, "store")))
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	j2, err := wal.Open(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := p2.ReplayJournal(j2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if p2.LastSeq() != finalSeq {
		t.Fatalf("recovered seq %d, want %d — a checkpoint destroyed an acknowledged record", p2.LastSeq(), finalSeq)
	}
	assertSameState(t, p2.Engine, p1.Engine, "checkpoint-under-ingest recovery")
}

// TestSnapshotStampExcludesJournaledButUnappliedRecord pins the lastSeq
// commit point: a record that reaches the journal but whose engine apply
// fails must not advance the pipeline's applied sequence — otherwise the
// next snapshot stamps AppliedSeq past the engine's real state and replay
// silently skips the record. The journal-succeeded/apply-failed state is
// entered directly (journalLocked without the commit), which is exactly
// what the append paths leave behind when the apply errors.
func TestSnapshotStampExcludesJournaledButUnappliedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	const scale = 0.02
	const feedBatches = 2
	dir := t.TempDir()
	p1, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, feedBatches)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1.AttachJournal(j1)
	store := openStore(t, filepath.Join(t.TempDir(), "store"))
	p1.AttachStore(store)

	// Batch 1 lands normally.
	if _, ok, err := p1.AppendNext(); err != nil || !ok {
		t.Fatalf("first feed batch: ok=%v err=%v", ok, err)
	}
	if p1.LastSeq() != 1 {
		t.Fatalf("seq after first batch = %d, want 1", p1.LastSeq())
	}
	// Batch 2 reaches the journal, then its apply "fails".
	p1.mu.Lock()
	seq, err := p1.journalLocked(record{kind: recFeed, feed: feedRecord{Index: 1}})
	p1.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("journaled seq %d, want 2", seq)
	}
	if got := p1.LastSeq(); got != 1 {
		t.Fatalf("lastSeq advanced to %d before the apply succeeded", got)
	}
	// A snapshot taken now must stamp only the applied record.
	var snap bytes.Buffer
	if err := p1.SnapshotEngine(&snap); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash + recover from snapshot@1 + journal{1,2}: record 2 is above the
	// stamp and must be re-applied, not skipped.
	p2, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, feedBatches)
	if err != nil {
		t.Fatal(err)
	}
	adoptSnapshot(t, p2, &snap, store)
	j2, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	applied, err := p2.ReplayJournal(j2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if applied != 1 {
		t.Fatalf("replay applied %d records, want 1 (the journaled-but-unapplied batch)", applied)
	}
	if p2.LastSeq() != 2 {
		t.Fatalf("recovered seq %d, want 2", p2.LastSeq())
	}
	if pending := p2.PendingBatches(); pending != 0 {
		t.Fatalf("feed not drained after replay: %d pending", pending)
	}

	// The recovered engine equals an uninterrupted two-batch drain.
	ref, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, feedBatches)
	if err != nil {
		t.Fatal(err)
	}
	for ref.PendingBatches() > 0 {
		if _, _, err := ref.AppendNext(); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, p2.Engine, ref.Engine, "journaled-but-unapplied replay")
}

// TestCheckpointWithoutStoreKeepsJournal: nothing writes the monolithic
// format any more, so a library pipeline without a content store cannot
// checkpoint. Checkpoint must fail before it truncates the journal, or the
// acknowledged records would be lost with no snapshot holding them.
func TestCheckpointWithoutStoreKeepsJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: 0.02}, 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := wal.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p.AttachJournal(j)
	if _, ok, err := p.AppendNext(); err != nil || !ok {
		t.Fatalf("feed batch: ok=%v err=%v", ok, err)
	}
	size := j.Size()
	if size == 0 {
		t.Fatal("journal empty after an acknowledged batch")
	}
	persisted := 0
	_, err = p.Checkpoint(func(snapshot func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := snapshot(&buf); err != nil {
			return err
		}
		persisted = buf.Len()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "AttachStore") {
		t.Fatalf("store-less Checkpoint error = %v, want one naming AttachStore", err)
	}
	if persisted != 0 {
		t.Fatalf("store-less Checkpoint persisted %d bytes", persisted)
	}
	if got := j.Size(); got != size {
		t.Fatalf("journal size %d after the failed checkpoint, want %d", got, size)
	}
}

// feedPipeline builds the seed-1, scale-0.05 world cut into a feed of k
// batches.
func feedPipeline(t *testing.T, k int) *Pipeline {
	t.Helper()
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFeedRepartitionCheckpointRestart: a checkpoint's feed cursor indexes
// the partition it was taken in. Taken after 10 of 20 batches and restored
// into a 10-batch feed, it must restart at zero, so a drain still ingests
// the whole corpus; restored into a 20-batch feed it keeps its place. A
// manifest whose stamps carry no feed size keeps its cursor wherever it
// fits, as before the size was recorded.
func TestFeedRepartitionCheckpointRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds")
	}
	p20 := feedPipeline(t, 20)
	store := openStore(t, t.TempDir())
	p20.AttachStore(store)
	if _, _, ok, err := p20.AppendPending(10, true); err != nil || !ok {
		t.Fatalf("first 10 of 20 batches: ok=%v err=%v", ok, err)
	}
	var snap bytes.Buffer
	if err := p20.SnapshotEngine(&snap); err != nil {
		t.Fatal(err)
	}
	manifest := snap.Bytes()
	if _, _, _, err := p20.AppendPending(-1, false); err != nil {
		t.Fatal(err)
	}
	want := len(p20.Engine.Dataset().Entries)

	p10 := feedPipeline(t, 10)
	unsized := bytes.Replace(manifest, []byte(`,"feedBatches":20`), nil, 1)
	adoptSnapshot(t, p10, bytes.NewReader(unsized), store)
	if got := p10.PendingBatches(); got != 0 {
		t.Fatalf("cursor without a feed size: %d batches pending in the 10-batch feed, want 0 (kept at 10)", got)
	}
	adoptSnapshot(t, p10, bytes.NewReader(manifest), store)
	if got := p10.PendingBatches(); got != 10 {
		t.Fatalf("cursor of the 20-batch feed: %d batches pending in the 10-batch feed, want all 10", got)
	}
	if _, _, _, err := p10.AppendPending(-1, false); err != nil {
		t.Fatal(err)
	}
	if got := len(p10.Engine.Dataset().Entries); got != want {
		t.Fatalf("drained 10-batch feed holds %d entries, want %d", got, want)
	}
	assertSameState(t, p10.Engine, p20.Engine, "checkpoint re-partitioned 20 → 10")

	adoptSnapshot(t, p20, bytes.NewReader(manifest), store)
	if got := p20.PendingBatches(); got != 10 {
		t.Fatalf("restored into the 20-batch feed it was taken in: %d batches pending, want 10", got)
	}
}

// TestFeedRepartitionJournalReplay: a journaled feed record indexes the
// partition it was ingested from. The journal of 10 batches of a 20-batch
// feed replays into a 20-batch feed to the live state, and fails the
// replay, applying nothing, in a feed of 10 or 40 batches.
func TestFeedRepartitionJournalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds")
	}
	dir := t.TempDir()
	live := feedPipeline(t, 20)
	j, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	live.AttachJournal(j)
	if _, _, ok, err := live.AppendPending(10, true); err != nil || !ok {
		t.Fatalf("first 10 of 20 batches: ok=%v err=%v", ok, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func(p *Pipeline) (int, error) {
		t.Helper()
		j, err := wal.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return p.ReplayJournal(j)
	}
	for _, k := range []int{10, 40} {
		p := feedPipeline(t, k)
		applied, err := replay(p)
		if err == nil || !strings.Contains(err.Error(), "was the serve configuration changed?") {
			t.Fatalf("%d-batch feed: replay error = %v, want the configuration-changed error", k, err)
		}
		if n := len(p.Engine.Dataset().Entries); applied != 0 || n != 0 || p.LastSeq() != 0 {
			t.Fatalf("%d-batch feed: the refused replay applied %d records (%d entries, seq %d)", k, applied, n, p.LastSeq())
		}
	}

	p := feedPipeline(t, 20)
	if applied, err := replay(p); err != nil || applied != 10 {
		t.Fatalf("20-batch feed: replay applied %d records, err %v; want 10", applied, err)
	}
	if got := p.PendingBatches(); got != 10 {
		t.Fatalf("20-batch feed: %d batches pending after replay, want 10", got)
	}
	assertSameState(t, p.Engine, live.Engine, "journal replayed into its own partition")
}

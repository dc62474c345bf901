package malgraph

// Durable ingest: the pipeline journals every accepted batch — the exact
// wire shapes serve receives — to a write-ahead log before the engine
// applies it, and recovery is last snapshot + journal suffix. Because the
// PR 2/3 equivalence contract makes any batch partition of the corpus
// yield identical Results, replaying the journal is just another
// partition: the recovered engine is bit-identical to one that never died.
//
// Journal record kinds:
//
//	"external"  {"observations":[...],"reports":[...]} — an AppendExternal
//	            delivery, journaled after validation/resolution succeeds
//	            (only accepted batches are journaled) and before apply.
//	"feed"      {"index":N} — the Nth batch of the deterministic simulated
//	            feed. The feed is re-derived from the run configuration on
//	            restart, so only the position is journaled.
//
// One funnel, applyLocked, applies both kinds in one fixed order — resolve,
// journal, feed-cursor advance, engine apply plus dirty-block merge,
// sequence commit — for live ingest (AppendPending, AppendExternal) and
// for ReplayJournal alike, so the ordering contract lives in one place.
// The funnel never publishes; each public mutator publishes once on exit.
//
// Sequence gating makes replay exactly-once on top of at-least-once
// delivery: a snapshot carries the last applied sequence (engine
// AppliedSeq, snapshot v4), and records at or below it are skipped. This
// also makes journal truncation after a checkpoint safe without any
// atomicity between the two files — a stale record that survives a lost
// truncate replays as a no-op.

import (
	"encoding/json"
	"fmt"
	"io"

	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
)

const (
	recExternal = "external"
	recFeed     = "feed"
)

// externalRecord is the journaled wire shape of an AppendExternal call:
// the raw observations (resolution re-runs deterministically on replay, at
// the world's fixed collection instant) and the parsed accepted reports.
type externalRecord struct {
	Observations []collect.Observation `json:"observations,omitempty"`
	Reports      []*reports.Report     `json:"reports,omitempty"`
}

// feedRecord journals one simulated-feed ingest by position.
type feedRecord struct {
	Index int `json:"index"`
}

// record is one journalable ingest, the unit applyLocked applies. kind is
// the WAL record kind and selects the payload: feed for recFeed, ext for
// recExternal.
type record struct {
	kind string
	feed feedRecord
	ext  externalRecord
}

// decodeRecord parses a journaled WAL record back into the record the live
// ingest journaled.
func decodeRecord(wr wal.Record) (rec record, err error) {
	rec.kind = wr.Kind
	switch wr.Kind {
	case recFeed:
		err = json.Unmarshal(wr.Payload, &rec.feed)
	case recExternal:
		err = json.Unmarshal(wr.Payload, &rec.ext)
	default:
		return rec, fmt.Errorf("unknown record kind %q", wr.Kind)
	}
	if err != nil {
		return rec, fmt.Errorf("decode %s record: %w", wr.Kind, err)
	}
	return rec, nil
}

// applyLocked is the mutation funnel. It resolves rec into an engine batch
// (a feed position or a resolver run over raw observations), journals it
// when live (replaySeq 0; a replayed record is already on disk under
// replaySeq), advances the feed cursor, applies the batch and merges its
// dirty blocks, and only then commits lastSeq — a journaled-but-unapplied
// record keeps its burned sequence above the next snapshot's stamp, so
// replay re-applies it instead of skipping it. A resolve or journal failure
// applies nothing. It never publishes. Caller holds p.mu.
func (p *Pipeline) applyLocked(rec record, replaySeq uint64) (core.IngestStats, error) {
	var b core.Batch
	var payload any
	switch rec.kind {
	case recFeed:
		b, payload = p.feed[rec.feed.Index], rec.feed
	case recExternal:
		if p.resolver == nil {
			view := p.view
			if view == nil {
				view = p.World.Fleet
			}
			p.resolver = collect.NewResolver(view, p.World.Config.CollectAt)
		}
		rb, err := p.resolver.Resolve(rec.ext.Observations, p.Engine.Dataset())
		if err != nil {
			return core.IngestStats{}, fmt.Errorf("malgraph: resolve observations: %w", err)
		}
		b = core.Batch{Entries: rb.Entries, PerSource: rb.PerSource, Stats: rb.Stats, Reports: rec.ext.Reports, At: rb.At}
		payload = rec.ext
	}
	seq := replaySeq
	if seq == 0 {
		var err error
		if seq, err = p.journalLocked(rec.kind, payload); err != nil {
			return core.IngestStats{}, err
		}
	}
	if rec.kind == recFeed {
		p.fed = max(p.fed, rec.feed.Index+1)
	}
	st, err := p.ingestLocked(b)
	if err != nil {
		return st, err
	}
	p.lastSeq = seq
	return st, nil
}

// AttachJournal makes every future accepted ingest journal-before-apply
// through l. The journal's sequence counter is raised to the pipeline's
// last applied sequence, so post-attach appends sort after everything a
// restored snapshot already covers. Attach after ReplayJournal when
// recovering.
func (p *Pipeline) AttachJournal(l *wal.Log) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l.EnsureSeq(p.lastSeq)
	p.journal = l
}

// LastSeq returns the durable sequence of the last accepted ingest — the
// number serve hands back to publishers so push can resume idempotently.
func (p *Pipeline) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeq
}

// journalLocked appends one record (fsync'd) and returns its sequence
// number without touching lastSeq: the caller commits the sequence only
// after the engine apply succeeds, so a snapshot's AppliedSeq stamp never
// claims a record the engine does not reflect. (A journaled-but-unapplied
// record keeps its burned sequence above the stamp and is re-applied on
// replay instead of being silently skipped.) With no journal attached the
// next sequence is just counted, so serve without -wal still hands out
// monotonic (just not durable) sequence numbers.
func (p *Pipeline) journalLocked(kind string, v any) (uint64, error) {
	if p.journal == nil {
		return p.lastSeq + 1, nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", kind, err)
	}
	seq, err := p.journal.Append(kind, payload)
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", kind, err)
	}
	return seq, nil
}

// Checkpoint couples "snapshot the engine" with "truncate the journal"
// under the pipeline lock: no concurrent ingest can journal a record
// between the snapshot's AppliedSeq stamp and the truncation, so the
// truncate never destroys an acknowledged record the snapshot does not
// contain. persist receives the engine snapshot writer and is responsible
// for making the bytes durable (serve wraps it in an fsync'd atomic file
// replace); the journal is truncated only after persist returns success.
// Returns the sequence the snapshot was stamped with.
func (p *Pipeline) Checkpoint(persist func(snapshot func(io.Writer) error) error) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := persist(p.snapshotEngineLocked); err != nil {
		return p.lastSeq, err
	}
	if p.journal != nil {
		if err := p.journal.Reset(); err != nil {
			return p.lastSeq, err
		}
	}
	return p.lastSeq, nil
}

// ReplayJournal re-applies the journal's intact records to the engine,
// skipping everything the restored snapshot already contains (sequence ≤
// the snapshot's AppliedSeq stamp). Feed records always advance the feed
// position — a snapshotted feed batch is in the engine but the in-memory
// cursor restarts at zero — and records above the stamp are re-applied
// through the same funnel as live ingest, without re-journaling. Returns
// the number of records re-applied.
func (p *Pipeline) ReplayJournal(l *wal.Log) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	applied := 0
	restored := p.lastSeq
	err := l.Replay(0, func(wr wal.Record) error {
		if wr.Kind == recExternal && wr.Seq <= restored {
			return nil
		}
		rec, err := decodeRecord(wr)
		if err != nil {
			return fmt.Errorf("malgraph: replay seq %d: %w", wr.Seq, err)
		}
		if rec.kind == recFeed && (rec.feed.Index < 0 || rec.feed.Index >= len(p.feed)) {
			return fmt.Errorf("malgraph: replay seq %d: feed index %d outside feed of %d batches (was the serve configuration changed?)",
				wr.Seq, rec.feed.Index, len(p.feed))
		}
		if wr.Seq <= restored {
			p.fed = max(p.fed, rec.feed.Index+1)
			return nil
		}
		if _, err := p.applyLocked(rec, wr.Seq); err != nil {
			return fmt.Errorf("malgraph: replay seq %d: %w", wr.Seq, err)
		}
		applied++
		return nil
	})
	if err != nil {
		return applied, err
	}
	l.EnsureSeq(p.lastSeq)
	// One publish covers the whole replay: recovered state becomes visible
	// to lock-free readers at the recovered batch boundary.
	p.publishLocked()
	return applied, nil
}

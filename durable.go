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
//	"observations"
//	            an AppendObservationsJSON push body, journaled verbatim as
//	            received once it decodes and resolves; replay decodes it
//	            with the same collect.DecodeObservations. Any member other
//	            than "observations" (a "reports" member included) is
//	            ignored live and on replay alike.
//	"feed"      {"index":N,"batches":K} — the Nth batch of the
//	            deterministic simulated feed, cut into K batches. The feed
//	            is re-derived from the run configuration on restart, so only
//	            the position and the partition it indexes are journaled.
//
// One funnel, applyLocked, applies every kind in one fixed order — resolve,
// journal, feed-cursor advance, engine apply plus dirty-block merge,
// sequence commit — for live ingest (AppendPending, AppendExternal,
// AppendObservationsJSON) and for ReplayJournal alike, so the ordering contract lives in one place.
// The funnel never publishes; each public mutator publishes once on exit.
//
// Sequence gating makes replay exactly-once on top of at-least-once
// delivery: a snapshot carries the last applied sequence (the pipeline's
// lastSeq, stamped as core.Stamps.AppliedSeq), and records at or below it
// are skipped. This also makes journal truncation after a checkpoint safe
// without any atomicity between the two files — a stale record that
// survives a lost truncate replays as a no-op.

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
	recExternal     = "external"
	recObservations = "observations"
	recFeed         = "feed"
)

// externalRecord is the journaled wire shape of an AppendExternal call:
// the raw observations (resolution re-runs deterministically on replay, at
// the world's fixed collection instant) and the parsed accepted reports.
type externalRecord struct {
	Observations []collect.Observation `json:"observations,omitempty"`
	Reports      []*reports.Report     `json:"reports,omitempty"`
}

// feedRecord journals one simulated-feed ingest by position, with the
// number of batches in the feed it indexes (0 in a record written before
// the size was journaled).
type feedRecord struct {
	Index   int `json:"index"`
	Batches int `json:"batches,omitempty"`
}

// record is one journalable ingest, the unit applyLocked applies. kind is
// the WAL record kind and selects the payload: feed for recFeed, ext for
// recExternal, and for recObservations body, the push body journaled as
// received, with ext.Observations decoded from it.
type record struct {
	kind string
	feed feedRecord
	ext  externalRecord
	body []byte
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
	case recObservations:
		rec.body = wr.Payload
		rec.ext.Observations, err = collect.DecodeObservations(wr.Payload)
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
	switch rec.kind {
	case recFeed:
		b = p.feed[rec.feed.Index]
	case recExternal, recObservations:
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
		b = core.Batch{Entries: rb.Entries, Reports: rec.ext.Reports, At: rb.At}
	}
	seq := replaySeq
	if seq == 0 {
		var err error
		if seq, err = p.journalLocked(rec); err != nil {
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

// journalLocked appends rec (fsync'd) — a feed or external record as
// JSON, an observations record as the body it was decoded from — and
// returns its sequence number without touching lastSeq: the caller commits
// the sequence only after the engine apply succeeds, so a snapshot's
// AppliedSeq stamp never claims a record the engine does not reflect. (A
// journaled-but-unapplied record keeps its burned sequence above the stamp
// and is re-applied on replay instead of being silently skipped.) With no
// journal attached the next sequence is just counted, so serve without
// -wal still hands out monotonic (just not durable) sequence numbers.
func (p *Pipeline) journalLocked(rec record) (uint64, error) {
	if p.journal == nil {
		return p.lastSeq + 1, nil
	}
	var payload []byte
	var err error
	switch rec.kind {
	case recFeed:
		payload, err = json.Marshal(rec.feed)
	case recExternal:
		payload, err = json.Marshal(rec.ext)
	case recObservations:
		payload = rec.body
	}
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", rec.kind, err)
	}
	seq, err := p.journal.Append(rec.kind, payload)
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", rec.kind, err)
	}
	return seq, nil
}

// Checkpoint couples "snapshot the engine" with "truncate the journal"
// under the pipeline lock: no concurrent ingest can journal a record
// between the snapshot's AppliedSeq stamp and the truncation, so the
// truncate never destroys an acknowledged record the snapshot does not
// contain. persist receives the engine snapshot writer — a manifest
// over the attached store (AttachStore; without one it errors) — and is
// responsible for making the bytes durable (serve wraps it in an fsync'd
// atomic file replace); the journal is truncated only after persist
// returns success.
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
// cursor may have restarted at zero — and records above the stamp are
// re-applied through the same funnel as live ingest, without
// re-journaling. A feed record that indexes a feed of another size, or
// lies outside this one, fails the replay: the serve configuration
// changed. Returns the number of records re-applied.
func (p *Pipeline) ReplayJournal(l *wal.Log) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	applied := 0
	restored := p.lastSeq
	err := l.Replay(0, func(wr wal.Record) error {
		if (wr.Kind == recExternal || wr.Kind == recObservations) && wr.Seq <= restored {
			return nil
		}
		rec, err := decodeRecord(wr)
		if err != nil {
			return fmt.Errorf("malgraph: replay seq %d: %w", wr.Seq, err)
		}
		if rec.kind == recFeed && (rec.feed.Index < 0 || rec.feed.Index >= len(p.feed) ||
			rec.feed.Batches != 0 && rec.feed.Batches != len(p.feed)) {
			return fmt.Errorf("malgraph: replay seq %d: feed record %+v does not index this feed of %d batches (was the serve configuration changed?)",
				wr.Seq, rec.feed, len(p.feed))
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

package collect

// Incremental resolution turns raw source observations — the records an
// external publisher POSTs to a running loader — into dataset batches, the
// streaming counterpart of Run's merge/resolve steps (§II-B as a continuous
// process). A Resolver is long-lived: it remembers each coordinate's
// recovery outcome so the fleet is queried at most once per coordinate no
// matter how many batches re-observe it, and it computes per-entry
// accounting whose deltas (ApplyEntryStat) telescope to exactly the
// aggregates a one-shot Run over the merged observations produces —
// regardless of how the observations were partitioned into batches.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
)

// Errors reported by the external ingest path.
var (
	// ErrBadObservation flags a malformed observation (unknown source,
	// incomplete coordinate, mismatched artifact); the batch is rejected
	// wholesale so the publisher can fix and retry.
	ErrBadObservation = errors.New("collect: bad observation")
	// ErrUnresolved flags an aborted resolve: a registry endpoint failed
	// for a reason other than not-found (transport error, HTTP 5xx).
	// Nothing was recorded — the caller retries the batch once the
	// endpoint recovers, instead of the failure being misfiled as a
	// takedown.
	ErrUnresolved = errors.New("collect: artifact recovery failed")
)

// Observation is one raw source record, the unit an external publisher
// POSTs: which source saw which coordinate when, with the artifact inline
// when the source carries artifacts.
type Observation struct {
	Source     sources.ID       `json:"source"`
	Coord      ecosys.Coord     `json:"coord"`
	ObservedAt time.Time        `json:"observedAt"`
	Artifact   *ecosys.Artifact `json:"artifact,omitempty"`
}

// SortObservations orders observations the way the loader replays them:
// by observation time, ties broken by coordinate key then source — the
// timeline order collect.NewFeed uses for entries.
func SortObservations(obs []Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if !obs[i].ObservedAt.Equal(obs[j].ObservedAt) {
			return obs[i].ObservedAt.Before(obs[j].ObservedAt)
		}
		ki, kj := obs[i].Coord.Key(), obs[j].Coord.Key()
		if ki != kj {
			return ki < kj
		}
		return obs[i].Source < obs[j].Source
	})
}

// ObservationsFromSources flattens a source set into the raw observation
// stream an external publisher would POST — the scheduler's view of the
// simulated world, in timeline order.
func ObservationsFromSources(set *sources.Set) []Observation {
	var out []Observation
	for _, src := range set.All() {
		id := src.Info().ID
		for _, rec := range src.Records() {
			out = append(out, Observation{
				Source: id, Coord: rec.Coord,
				ObservedAt: rec.ObservedAt, Artifact: rec.Artifact,
			})
		}
	}
	SortObservations(out)
	return out
}

// recoverOutcome caches one coordinate's mirror-recovery result. Recovery is
// evaluated once, at the resolver's collection instant, exactly as Run
// evaluates availability once per collection — so the cache is not just a
// network optimisation but what keeps availability partition-independent.
type recoverOutcome struct {
	art  *ecosys.Artifact
	from string
	ok   bool // false ⇒ definitive not-found at every endpoint (takedown)
}

// Resolver incrementally resolves observation batches against a growing
// dataset. Methods are not safe for concurrent use; the ingest pipeline
// serialises calls under its own lock.
type Resolver struct {
	fleet     registry.View
	at        time.Time
	recovered map[string]recoverOutcome
	releases  map[string]ecosys.Release // only coordinates with metadata
}

// NewResolver returns a resolver recovering artifacts through fleet, with
// every lookup evaluated at the fixed collection instant at.
func NewResolver(fleet registry.View, at time.Time) *Resolver {
	return &Resolver{
		fleet:     fleet,
		at:        at,
		recovered: make(map[string]recoverOutcome),
		releases:  make(map[string]ecosys.Release),
	}
}

// Resolve merges a batch of raw observations against the existing dataset
// and returns the resulting Batch: merged entries for every touched
// coordinate, their absolute per-entry accounting (Stats), and the aggregate
// accounting delta (PerSource). The existing dataset is read, never written;
// the caller ingests the batch (core.Engine upserts the entries and applies
// the stats).
//
// Per coordinate, resolution follows Run: artifacts come source-first (an
// observation from an artifact-carrying source), then from the fleet —
// queried at most once per coordinate, at the resolver's collection instant.
// A definitive not-found marks the entry Missing; a transport failure aborts
// the whole batch with ErrUnresolved and records nothing. Duplicate
// deliveries are idempotent. A known source re-observing with a different
// timestamp keeps its first accounting contribution (its record is set),
// though an earlier timestamp or a late artifact still improves the entry.
func (rv *Resolver) Resolve(obs []Observation, existing *Result) (Batch, error) {
	if existing == nil {
		return Batch{}, fmt.Errorf("collect: resolve against nil dataset")
	}
	at := rv.at
	if at.IsZero() {
		at = existing.CollectedAt
	}
	byKey := make(map[string][]Observation)
	keys := make([]string, 0, len(obs))
	for _, o := range obs {
		info, known := sources.InfoFor(o.Source)
		if !known {
			return Batch{}, fmt.Errorf("%w: unknown source %d", ErrBadObservation, int(o.Source))
		}
		if !validEcosystem(o.Coord.Ecosystem) || o.Coord.Name == "" || o.Coord.Version == "" {
			return Batch{}, fmt.Errorf("%w: incomplete coordinate %q", ErrBadObservation, o.Coord.Key())
		}
		// Graph node IDs use '|' as a separator (record nodes, co-existing
		// pair keys), so it may not appear inside a coordinate.
		if strings.ContainsRune(o.Coord.Name, '|') || strings.ContainsRune(o.Coord.Version, '|') {
			return Batch{}, fmt.Errorf("%w: '|' in coordinate %q", ErrBadObservation, o.Coord.Key())
		}
		if o.Artifact != nil && o.Artifact.Coord != o.Coord {
			return Batch{}, fmt.Errorf("%w: artifact coordinate %s does not match %s",
				ErrBadObservation, o.Artifact.Coord.Key(), o.Coord.Key())
		}
		if !info.CarriesArtifacts {
			// Industry feeds publish names only (§II-B); an attached
			// artifact is dropped exactly as sources.Source.Observe drops it.
			o.Artifact = nil
		}
		key := o.Coord.Key()
		if _, seen := byKey[key]; !seen {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], o)
	}
	sort.Strings(keys)

	b := Batch{
		PerSource: make(map[sources.ID]SourceStats),
		Stats:     make(map[string]EntryStat, len(keys)),
		At:        at,
	}
	for _, key := range keys {
		group := byKey[key]
		// Within a coordinate, apply observations in ascending source order
		// — the order Run sees records in (set.All() iterates sources by
		// ID), so artifact choice among several carriers matches one-shot.
		sort.SliceStable(group, func(i, j int) bool { return group[i].Source < group[j].Source })

		cur, exists := existing.Entry(group[0].Coord)
		var next Entry
		var oldStat EntryStat
		if exists {
			next = *cur
			// The merged entry must never share slice backing with the
			// live dataset entry: append+sort below would otherwise
			// reorder cur.Sources in place (spare capacity lets append
			// write into the shared array), corrupting the engine's
			// stored entry before Upsert even sees the batch.
			next.Sources = append([]sources.ID(nil), cur.Sources...)
			oldStat = rv.statFor(existing, cur)
		} else {
			next = Entry{Coord: group[0].Coord}
		}

		var newSources []sources.ID
		carriedNew := false
		for _, o := range group {
			if !containsID(next.Sources, o.Source) {
				next.Sources = append(next.Sources, o.Source)
				if !containsID(newSources, o.Source) {
					newSources = append(newSources, o.Source)
				}
			}
			if !o.ObservedAt.IsZero() && (next.ObservedAt.IsZero() || o.ObservedAt.Before(next.ObservedAt)) {
				next.ObservedAt = o.ObservedAt
			}
			if o.Artifact != nil {
				carriedNew = true
				if next.Artifact == nil {
					next.Artifact = o.Artifact
					next.Availability = FromSource
					next.RecoveredFrom = ""
				}
			}
		}
		sort.Slice(next.Sources, func(i, j int) bool { return next.Sources[i] < next.Sources[j] })
		if carriedNew && next.Availability == FromMirror {
			// Source-first: the merged observation set now includes a
			// carrying source, which is how Run would have classified it.
			next.Availability = FromSource
			next.RecoveredFrom = ""
		}

		// Mirror outcome — needed for recovery when no source carries the
		// artifact, and for the accounting of artifact-less sources either
		// way (Run queries the fleet for every coordinate). Inference from
		// the existing entry avoids re-querying coordinates the dataset
		// already settled.
		var mirrorOK bool
		switch {
		case exists && cur.Availability == FromMirror:
			mirrorOK = true
		case exists && cur.Availability == Missing:
			mirrorOK = false
		case exists && len(oldStat.Local) > 0:
			mirrorOK = false
		default:
			out, err := rv.recover(group[0].Coord, at)
			if err != nil {
				return Batch{}, err
			}
			mirrorOK = out.ok
			if next.Artifact == nil {
				if out.ok {
					next.Artifact = out.art
					next.Availability = FromMirror
					next.RecoveredFrom = out.from
				} else {
					next.Availability = Missing
				}
			}
		}

		// Release metadata survives takedown (Fig. 7 timeline).
		if next.ReleasedAt.IsZero() || next.RemovedAt.IsZero() {
			if rel, ok := rv.release(group[0].Coord); ok {
				if next.ReleasedAt.IsZero() {
					next.ReleasedAt = rel.ReleasedAt
				}
				if next.RemovedAt.IsZero() {
					next.RemovedAt = rel.RemovedAt
				}
			}
		}

		// Accounting: previously settled sources keep their contribution
		// (local status depends only on their own record and the fixed
		// mirror outcome); new artifact-less sources join Local when the
		// mirror failed; the global flag is re-derived from the merged
		// state, exactly as Run derives it.
		newStat := EntryStat{Local: append([]sources.ID(nil), oldStat.Local...)}
		if !mirrorOK {
			for _, o := range group {
				if o.Artifact == nil && containsID(newSources, o.Source) && !containsID(newStat.Local, o.Source) {
					newStat.Local = append(newStat.Local, o.Source)
				}
			}
		}
		sort.Slice(newStat.Local, func(i, j int) bool { return newStat.Local[i] < newStat.Local[j] })
		newStat.Global = len(newStat.Local) > 0 && !mirrorOK && next.Availability != FromSource

		addStatDelta(b.PerSource, oldStat, newStat, newSources)
		b.Stats[key] = newStat
		entry := next
		b.Entries = append(b.Entries, &entry)
	}
	return b, nil
}

// statFor returns the recorded accounting for an existing entry, or the
// availability-derived approximation when the dataset has none.
func (rv *Resolver) statFor(existing *Result, e *Entry) EntryStat {
	if es, ok := existing.EntryStatFor(e.Coord.Key()); ok {
		return es
	}
	if e.Availability == Missing {
		return EntryStat{Local: e.Sources, Global: true}
	}
	return EntryStat{}
}

// recover queries the fleet once per coordinate, caching definitive
// outcomes. Transport failures are not cached — the next batch retries.
func (rv *Resolver) recover(coord ecosys.Coord, at time.Time) (recoverOutcome, error) {
	key := coord.Key()
	if out, ok := rv.recovered[key]; ok {
		return out, nil
	}
	art, from, err := rv.fleet.Recover(coord, at)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			out := recoverOutcome{}
			rv.recovered[key] = out
			return out, nil
		}
		return recoverOutcome{}, fmt.Errorf("%w: %s: %w", ErrUnresolved, coord.Key(), err)
	}
	out := recoverOutcome{art: art, from: from, ok: true}
	rv.recovered[key] = out
	return out, nil
}

func (rv *Resolver) release(coord ecosys.Coord) (ecosys.Release, bool) {
	key := coord.Key()
	if rel, ok := rv.releases[key]; ok {
		return rel, true
	}
	rel, ok := rv.fleet.ReleaseInfo(coord)
	if !ok {
		return ecosys.Release{}, false
	}
	rv.releases[key] = rel
	return rel, true
}

// addStatDelta accumulates the per-source aggregate difference between an
// entry's old and new accounting (the shared ApplyStatDelta algorithm), plus
// one Total per newly observed source.
func addStatDelta(agg map[sources.ID]SourceStats, old, next EntryStat, newSources []sources.ID) {
	for _, s := range newSources {
		st := agg[s]
		st.Total++
		agg[s] = st
	}
	ApplyStatDelta(agg, old, next)
}

func validEcosystem(e ecosys.Ecosystem) bool {
	for _, known := range ecosys.All() {
		if e == known {
			return true
		}
	}
	return false
}

package collect

// Resolution is the paper's §II-B merge, and its only implementation: raw
// source observations are grouped by coordinate, each coordinate takes its
// artifact from a carrying source before a mirror, and each entry's
// per-source accounting (local and global missing rates, Tables I and V) is
// recorded. Run is one Resolve over every source record against an empty
// dataset; external ingest resolves the records a publisher POSTs to a
// running loader, batch by batch. A Resolver is long-lived: it remembers
// each coordinate's recovery outcome so the fleet is queried at most once
// per coordinate no matter how many batches re-observe it. Each entry's
// accounting is re-derived from its merged state, so the entries of any
// batch partition carry the accounting of one resolve over all the
// observations, and Result.SourceStats sums the same aggregates.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
// timeline order TimelineBatches uses for entries.
func SortObservations(obs []Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if c := obs[i].ObservedAt.Compare(obs[j].ObservedAt); c != 0 {
			return c < 0
		}
		if c := obs[i].Coord.CompareKey(obs[j].Coord); c != 0 {
			return c < 0
		}
		return obs[i].Source < obs[j].Source
	})
}

// ObservationsFromSources flattens a source set into the raw observation
// stream an external publisher would POST — the scheduler's view of the
// simulated world, in timeline order.
func ObservationsFromSources(set *sources.Set) []Observation {
	out := observations(set)
	SortObservations(out)
	return out
}

// observations flattens a source set source by source, in ascending source
// ID and, within a source, coordinate-key order.
func observations(set *sources.Set) []Observation {
	out := make([]Observation, 0, set.TotalObservations())
	for _, src := range set.All() {
		id := src.Info().ID
		for _, rec := range src.Records() {
			out = append(out, Observation{
				Source: id, Coord: rec.Coord,
				ObservedAt: rec.ObservedAt, Artifact: rec.Artifact,
			})
		}
	}
	return out
}

// recoverOutcome caches one coordinate's mirror-recovery result. Recovery is
// evaluated once, at the resolver's collection instant, as a one-shot Run
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
// coordinate in key order, each carrying its absolute accounting
// (Entry.Stat). The existing dataset is read, never written; the caller
// ingests the batch (core.Engine upserts the entries).
//
// Per coordinate, artifacts come source-first (an observation from an
// artifact-carrying source, the lowest source ID winning), then from the
// fleet — queried at most once per coordinate, at the resolver's collection
// instant. A definitive not-found marks the entry Missing; a transport
// failure aborts the whole batch with ErrUnresolved and records nothing.
// Duplicate deliveries are idempotent. A known source re-observing with a
// different timestamp keeps its first accounting contribution (its record
// is set), though an earlier timestamp or a late artifact still improves
// the entry.
func (rv *Resolver) Resolve(obs []Observation, existing *Result) (Batch, error) {
	b, _, err := rv.resolve(obs, existing)
	return b, err
}

// resolve is Resolve that also returns the coordinate key of each batch
// entry, parallel to b.Entries, so Run can index its dataset without
// recomputing them.
func (rv *Resolver) resolve(obs []Observation, existing *Result) (Batch, []string, error) {
	if existing == nil {
		return Batch{}, nil, fmt.Errorf("collect: resolve against nil dataset")
	}
	at := rv.at
	if at.IsZero() {
		at = existing.CollectedAt
	}
	obsKeys := make([]string, len(obs))
	for i := range obs {
		if err := validate(&obs[i]); err != nil {
			return Batch{}, nil, err
		}
		obsKeys[i] = obs[i].Coord.Key()
	}
	// Group by coordinate: one sort of the observation indices by key, then
	// source — so the lowest-ID carrying source supplies the artifact
	// whatever the arrival order or batch partition — then arrival.
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := strings.Compare(obsKeys[i], obsKeys[j]); c != 0 {
			return c
		}
		if c := cmp.Compare(obs[i].Source, obs[j].Source); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	groups := 0
	for n, i := range order {
		if n == 0 || obsKeys[i] != obsKeys[order[n-1]] {
			groups++
		}
	}
	if len(rv.recovered) == 0 && len(rv.releases) == 0 {
		rv.recovered = make(map[string]recoverOutcome, groups)
		rv.releases = make(map[string]ecosys.Release, groups)
	}

	b := Batch{
		Entries: make([]*Entry, 0, groups),
		At:      at,
	}
	keys := make([]string, 0, groups)
	var group []Observation
	var newSources []sources.ID
	for lo := 0; lo < len(order); {
		key := obsKeys[order[lo]]
		group = group[:0]
		for ; lo < len(order) && obsKeys[order[lo]] == key; lo++ {
			o := obs[order[lo]]
			if info, _ := sources.InfoFor(o.Source); !info.CarriesArtifacts {
				// Industry feeds publish names only (§II-B); an attached
				// artifact is dropped exactly as sources.Source.Observe
				// drops it.
				o.Artifact = nil
			}
			group = append(group, o)
		}
		coord := group[0].Coord

		cur, exists := existing.EntryByKey(key)
		next := new(Entry)
		var oldStat EntryStat
		if exists {
			*next = *cur
			// The merged entry must never share slice backing with the
			// live dataset entry: append+sort below would otherwise
			// reorder cur.Sources in place (spare capacity lets append
			// write into the shared array), corrupting the engine's
			// stored entry before UpsertBatch even sees the batch.
			next.Sources = append(make([]sources.ID, 0, len(cur.Sources)+len(group)), cur.Sources...)
			oldStat = cur.Accounting()
		} else {
			next.Coord = coord
			next.Sources = make([]sources.ID, 0, len(group))
		}

		newSources = newSources[:0]
		carriedNew := false
		for _, o := range group {
			if !slices.Contains(next.Sources, o.Source) {
				next.Sources = append(next.Sources, o.Source)
				newSources = append(newSources, o.Source)
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
		slices.Sort(next.Sources)
		if carriedNew && next.Availability == FromMirror {
			// Source-first: the merged observation set now includes a
			// carrying source, which is how a one-shot resolve of every
			// observation would have classified it.
			next.Availability = FromSource
			next.RecoveredFrom = ""
		}

		// Mirror outcome — needed for recovery when no source carries the
		// artifact, and for the accounting of artifact-less sources either
		// way (every coordinate's mirror outcome is evaluated once).
		// Inference from the existing entry avoids re-querying coordinates
		// the dataset already settled.
		var mirrorOK bool
		switch {
		case exists && cur.Availability == FromMirror:
			mirrorOK = true
		case exists && cur.Availability == Missing:
			mirrorOK = false
		case exists && len(oldStat.Local) > 0:
			mirrorOK = false
		default:
			out, err := rv.recover(coord, key, at)
			if err != nil {
				return Batch{}, nil, err
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
			if rel, ok := rv.release(coord, key); ok {
				if next.ReleasedAt.IsZero() {
					next.ReleasedAt = rel.ReleasedAt
				}
				if next.RemovedAt.IsZero() {
					next.RemovedAt = rel.RemovedAt
				}
			}
		}

		// Accounting (§II-B, Tables I and V): a source counts the package
		// locally unavailable when its own record carries no artifact and
		// the mirrors failed; the package is globally missing when, on top,
		// no source at all carried it. Previously settled sources keep
		// their contribution (local status depends only on their own record
		// and the fixed mirror outcome); the global flag is re-derived from
		// the merged state.
		newStat := EntryStat{Local: append([]sources.ID(nil), oldStat.Local...)}
		if !mirrorOK {
			for _, o := range group {
				if o.Artifact == nil && slices.Contains(newSources, o.Source) && !slices.Contains(newStat.Local, o.Source) {
					newStat.Local = append(newStat.Local, o.Source)
				}
			}
		}
		slices.Sort(newStat.Local)
		newStat.Global = len(newStat.Local) > 0 && !mirrorOK && next.Availability != FromSource

		next.Stat = &newStat
		b.Entries = append(b.Entries, next)
		keys = append(keys, key)
	}
	return b, keys, nil
}

// validate rejects a malformed observation with ErrBadObservation.
func validate(o *Observation) error {
	if _, known := sources.InfoFor(o.Source); !known {
		return fmt.Errorf("%w: unknown source %d", ErrBadObservation, int(o.Source))
	}
	if !validEcosystem(o.Coord.Ecosystem) || o.Coord.Name == "" || o.Coord.Version == "" {
		return fmt.Errorf("%w: incomplete coordinate %q", ErrBadObservation, o.Coord.Key())
	}
	// Graph identifiers use '|' as a separator (record node IDs, graph
	// edge keys), so it may not appear inside a coordinate.
	if strings.IndexByte(o.Coord.Name, '|') >= 0 || strings.IndexByte(o.Coord.Version, '|') >= 0 {
		return fmt.Errorf("%w: '|' in coordinate %q", ErrBadObservation, o.Coord.Key())
	}
	if o.Artifact != nil && o.Artifact.Coord != o.Coord {
		return fmt.Errorf("%w: artifact coordinate %s does not match %s",
			ErrBadObservation, o.Artifact.Coord.Key(), o.Coord.Key())
	}
	return nil
}

// recover queries the fleet once per coordinate, caching definitive
// outcomes under the coordinate's key. Transport failures are not cached —
// the next batch retries.
func (rv *Resolver) recover(coord ecosys.Coord, key string, at time.Time) (recoverOutcome, error) {
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
		return recoverOutcome{}, fmt.Errorf("%w: %s: %w", ErrUnresolved, key, err)
	}
	out := recoverOutcome{art: art, from: from, ok: true}
	rv.recovered[key] = out
	return out, nil
}

func (rv *Resolver) release(coord ecosys.Coord, key string) (ecosys.Release, bool) {
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

func validEcosystem(e ecosys.Ecosystem) bool {
	for _, known := range ecosys.All() {
		if e == known {
			return true
		}
	}
	return false
}

// Package registry implements the package-registry substrate: root
// registries with a full release/takedown event ledger, and mirror registries
// that replicate the root on a sync schedule. Mirrors are the paper's
// malware-recovery channel (§II-B): because a mirror lags the root, a package
// removed from the root may survive in the mirror until the next sync — or
// forever, for accumulate-mode mirrors that never delete.
//
// The package also exposes the registries over HTTP (see http.go) so the
// collection pipeline can run against real network endpoints.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"malgraph/internal/ecosys"
)

// Errors reported by registry operations.
var (
	ErrAlreadyPublished = errors.New("registry: coordinate already published")
	ErrNotFound         = errors.New("registry: package not found")
	ErrAlreadyRemoved   = errors.New("registry: package already removed")
)

// Registry is a root package registry for one ecosystem: the authoritative
// store packages are released to and taken down from (Fig. 1 phases 2–4).
type Registry struct {
	name string
	eco  ecosys.Ecosystem

	mu        sync.RWMutex
	releases  map[string]*ecosys.Release
	artifacts map[string]*ecosys.Artifact
	ledger    []ecosys.Release // append-only, in publish order
}

// New returns an empty root registry.
func New(name string, eco ecosys.Ecosystem) *Registry {
	return &Registry{
		name:      name,
		eco:       eco,
		releases:  make(map[string]*ecosys.Release),
		artifacts: make(map[string]*ecosys.Artifact),
	}
}

// Name returns the registry name.
func (r *Registry) Name() string { return r.name }

// Ecosystem returns the ecosystem this registry serves.
func (r *Registry) Ecosystem() ecosys.Ecosystem { return r.eco }

// Publish records a release at the given time. Republishing a coordinate —
// even a removed one — fails: registries ban name/version reuse after a
// takedown (§III-B).
func (r *Registry) Publish(art *ecosys.Artifact, at time.Time, malicious bool) error {
	if art.Coord.Ecosystem != r.eco {
		return fmt.Errorf("registry %s: wrong ecosystem %s", r.name, art.Coord.Ecosystem)
	}
	key := art.Coord.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.releases[key]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyPublished, art.Coord)
	}
	rel := &ecosys.Release{Coord: art.Coord, ReleasedAt: at, Malicious: malicious}
	r.releases[key] = rel
	r.artifacts[key] = art
	r.ledger = append(r.ledger, *rel)
	return nil
}

// Remove records an administrator takedown at the given time.
func (r *Registry) Remove(coord ecosys.Coord, at time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rel, ok := r.releases[coord.Key()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, coord)
	}
	if rel.Removed() {
		return fmt.Errorf("%w: %s", ErrAlreadyRemoved, coord)
	}
	if at.Before(rel.ReleasedAt) {
		return fmt.Errorf("registry %s: removal of %s precedes release", r.name, coord)
	}
	rel.RemovedAt = at
	return nil
}

// LiveAt reports whether the coordinate is present in the root at time t.
func (r *Registry) LiveAt(coord ecosys.Coord, t time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel, ok := r.releases[coord.Key()]
	if !ok {
		return false
	}
	return liveAt(rel, t)
}

func liveAt(rel *ecosys.Release, t time.Time) bool {
	if t.Before(rel.ReleasedAt) {
		return false
	}
	return !rel.Removed() || t.Before(rel.RemovedAt)
}

// Fetch returns the artifact if the coordinate is live at time t.
func (r *Registry) Fetch(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, error) {
	if art, ok := r.fetch(coord.Key(), t); ok {
		return art, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, coord)
}

// fetch is Fetch by coordinate key, without an error on a miss.
func (r *Registry) fetch(key string, t time.Time) (*ecosys.Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel, ok := r.releases[key]
	if !ok || !liveAt(rel, t) {
		return nil, false
	}
	return r.artifacts[key], true
}

// Release returns the release record for a coordinate regardless of takedown
// state (registries keep metadata even after removal; the paper queries
// release times of missing packages this way, Fig. 7).
func (r *Registry) Release(coord ecosys.Coord) (ecosys.Release, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel, ok := r.releases[coord.Key()]
	if !ok {
		return ecosys.Release{}, false
	}
	return *rel, true
}

// Ledger returns a copy of every release in publish order with current
// takedown state.
func (r *Registry) Ledger() []ecosys.Release {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ecosys.Release, 0, len(r.ledger))
	for _, rel := range r.ledger {
		cur := r.releases[rel.Coord.Key()]
		out = append(out, *cur)
	}
	return out
}

// Archive returns the artifact for a coordinate regardless of takedown
// state. Only the simulation harness uses this (the attacker keeps its own
// copies); the collection pipeline must go through Fetch or mirrors.
func (r *Registry) Archive(coord ecosys.Coord) (*ecosys.Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.artifacts[coord.Key()]
	return a, ok
}

// Count returns how many coordinates were ever published.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.releases)
}

// SyncMode controls how a mirror applies the root's state at each sync.
type SyncMode int

const (
	// SyncSnapshot mirrors replicate the root's live set exactly: packages
	// removed from the root disappear from the mirror at the next sync.
	SyncSnapshot SyncMode = iota + 1
	// SyncAccumulate mirrors only ever add: once a package has been seen
	// live at any sync, the mirror retains it forever (archive mirrors).
	SyncAccumulate
)

// Mirror is a replica of a root registry that syncs on a fixed period with a
// phase offset. Mirror state at time t is derived lazily from the root's
// ledger and the sync schedule, so mirrors are cheap no matter how many
// packages exist.
type Mirror struct {
	name   string
	root   *Registry
	mode   SyncMode
	epoch  time.Time     // first sync instant
	period time.Duration // > 0
}

// NewMirror creates a mirror of root. epoch is the first sync instant and
// period the sync interval; period must be positive.
func NewMirror(name string, root *Registry, mode SyncMode, epoch time.Time, period time.Duration) (*Mirror, error) {
	if period <= 0 {
		return nil, fmt.Errorf("mirror %s: non-positive sync period", name)
	}
	return &Mirror{name: name, root: root, mode: mode, epoch: epoch, period: period}, nil
}

// Name returns the mirror name.
func (m *Mirror) Name() string { return m.name }

// Ecosystem returns the mirrored ecosystem.
func (m *Mirror) Ecosystem() ecosys.Ecosystem { return m.root.Ecosystem() }

// LastSync returns the most recent sync instant at or before t and true, or
// false when the mirror has never synced by t.
func (m *Mirror) LastSync(t time.Time) (time.Time, bool) {
	if t.Before(m.epoch) {
		return time.Time{}, false
	}
	n := t.Sub(m.epoch) / m.period
	return m.epoch.Add(n * m.period), true
}

// Has reports whether the mirror holds the coordinate at time t.
//
//   - Snapshot mode: present iff the package was live in the root at the
//     mirror's last sync before t. A package removed from the root after
//     that sync is therefore still available here — the §II-B time gap.
//   - Accumulate mode: present iff ANY sync in [epoch, t] fell inside the
//     package's live window in the root.
func (m *Mirror) Has(coord ecosys.Coord, t time.Time) bool {
	_, ok := m.fetch(coord.Key(), t)
	return ok
}

// fetch returns the artifact by coordinate key if the mirror holds it at
// time t (see Has), without an error on a miss.
func (m *Mirror) fetch(key string, t time.Time) (*ecosys.Artifact, bool) {
	last, ok := m.LastSync(t)
	if !ok {
		return nil, false
	}
	r := m.root
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel, ok := r.releases[key]
	if !ok {
		return nil, false
	}
	switch m.mode {
	case SyncAccumulate:
		ok = m.anySyncInWindow(*rel, last)
	default:
		ok = liveAt(rel, last)
	}
	if !ok {
		return nil, false
	}
	return r.artifacts[key], true
}

func (m *Mirror) anySyncInWindow(rel ecosys.Release, lastSync time.Time) bool {
	// First sync at or after the release instant.
	var first time.Time
	if !rel.ReleasedAt.After(m.epoch) {
		first = m.epoch
	} else {
		d := rel.ReleasedAt.Sub(m.epoch)
		n := d / m.period
		if m.epoch.Add(n * m.period).Before(rel.ReleasedAt) {
			n++
		}
		first = m.epoch.Add(n * m.period)
	}
	if first.After(lastSync) {
		return false
	}
	if !rel.Removed() {
		return true
	}
	return first.Before(rel.RemovedAt)
}

// Fetch returns the artifact if the mirror holds the coordinate at time t.
func (m *Mirror) Fetch(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, error) {
	if art, ok := m.fetch(coord.Key(), t); ok {
		return art, nil
	}
	return nil, fmt.Errorf("%w: %s (mirror %s)", ErrNotFound, coord, m.name)
}

// Fleet groups the root registries and mirrors of a simulated world and
// answers the collection pipeline's lookups.
type Fleet struct {
	mu      sync.RWMutex
	roots   map[ecosys.Ecosystem]*Registry
	mirrors map[ecosys.Ecosystem][]*Mirror
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{
		roots:   make(map[ecosys.Ecosystem]*Registry),
		mirrors: make(map[ecosys.Ecosystem][]*Mirror),
	}
}

// AddRoot registers the root registry for its ecosystem.
func (f *Fleet) AddRoot(r *Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.roots[r.Ecosystem()] = r
}

// AddMirror registers a mirror under its ecosystem.
func (f *Fleet) AddMirror(m *Mirror) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mirrors[m.Ecosystem()] = append(f.mirrors[m.Ecosystem()], m)
}

// Root returns the root registry for an ecosystem.
func (f *Fleet) Root(eco ecosys.Ecosystem) (*Registry, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r, ok := f.roots[eco]
	return r, ok
}

// Mirrors returns the mirrors for an ecosystem.
func (f *Fleet) Mirrors(eco ecosys.Ecosystem) []*Mirror {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Mirror, len(f.mirrors[eco]))
	copy(out, f.mirrors[eco])
	return out
}

// Roots returns all root registries sorted by ecosystem.
func (f *Fleet) Roots() []*Registry {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Registry, 0, len(f.roots))
	for _, r := range f.roots {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ecosystem() < out[j].Ecosystem() })
	return out
}

// Recover attempts the paper's §II-B recovery: fetch from the root first,
// then fall back to each mirror in order. It returns the artifact and the
// name of the registry that served it.
func (f *Fleet) Recover(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, string, error) {
	key := coord.Key()
	f.mu.RLock()
	root, mirrors := f.roots[coord.Ecosystem], f.mirrors[coord.Ecosystem]
	f.mu.RUnlock()
	if root != nil {
		if art, ok := root.fetch(key, t); ok {
			return art, root.name, nil
		}
	}
	for _, m := range mirrors {
		if art, ok := m.fetch(key, t); ok {
			return art, m.name, nil
		}
	}
	return nil, "", &fleetNotFound{coord: coord}
}

// fleetNotFound is Fleet.Recover's ErrNotFound, formatted only when printed:
// a collection meets one for every taken-down package and only tests it
// with errors.Is.
type fleetNotFound struct{ coord ecosys.Coord }

func (e *fleetNotFound) Error() string {
	return fmt.Sprintf("%v: %s (root and all mirrors)", ErrNotFound, e.coord)
}

func (e *fleetNotFound) Unwrap() error { return ErrNotFound }

package collect

// Tests for the incremental observation resolver (the external ingest path)
// and the transport-vs-takedown distinction (ISSUE 3): a transient registry
// failure must surface as an error, never as Availability=Missing.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
	"malgraph/internal/world"
)

// resolveAll partitions obs into k contiguous batches and feeds them through
// one resolver, merging each batch into ds the way core.Engine would
// (UpsertBatch; each entry carries its accounting).
func resolveAll(t *testing.T, rv *Resolver, ds *Result, obs []Observation, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		lo, hi := i*len(obs)/k, (i+1)*len(obs)/k
		b, err := rv.Resolve(obs[lo:hi], ds)
		if err != nil {
			t.Fatalf("resolve batch %d: %v", i, err)
		}
		ds.UpsertBatch(b.Entries)
	}
}

// TestResolvePartitionsMatchRun checks the partition-independent
// accounting contract on the hand-crafted fixture: Run (one resolve of
// every observation) and the raw observations resolved in k batches —
// including k large enough to split a multi-source coordinate across
// batches — all reproduce the fixture's hand-computed entries and
// per-source accounting (SourceStats) exactly.
func TestResolvePartitionsMatchRun(t *testing.T) {
	set, fleet := fixture(t)
	at := day(30)
	wantEntries := []struct {
		name         string
		availability Availability
		from         string
		sources      []sources.ID
		observedAt   time.Time
	}{
		{"pkg-a", FromSource, "", []sources.ID{sources.Backstabber}, day(2)},
		{"pkg-b", FromMirror, "tuna", []sources.ID{sources.Snyk, sources.Tianwen}, day(8)},
		{"pkg-c", Missing, "", []sources.ID{sources.Socket}, day(5)},
	}
	wantPerSource := map[sources.ID]SourceStats{
		sources.Backstabber: {Total: 1},
		sources.Snyk:        {Total: 1},
		sources.Tianwen:     {Total: 1},
		sources.Socket:      {Total: 1, LocalUnavailable: 1, GlobalMissing: 1},
	}
	check := func(label string, ds *Result) {
		t.Helper()
		if len(ds.Entries) != len(wantEntries) {
			t.Fatalf("%s: %d entries, want %d", label, len(ds.Entries), len(wantEntries))
		}
		for i, e := range ds.Entries {
			w := wantEntries[i]
			if e.Coord.Name != w.name || e.Availability != w.availability ||
				e.RecoveredFrom != w.from || !e.ObservedAt.Equal(w.observedAt) ||
				!reflect.DeepEqual(e.Sources, w.sources) {
				t.Errorf("%s: entry %s = %+v, want %+v", label, e.Coord.Key(), e, w)
			}
			if (e.Artifact == nil) != (w.availability == Missing) {
				t.Errorf("%s: entry %s artifact presence wrong", label, e.Coord.Key())
			}
		}
		if got := ds.SourceStats(); !reflect.DeepEqual(got, wantPerSource) {
			t.Errorf("%s: SourceStats = %+v, want %+v", label, got, wantPerSource)
		}
	}
	oneShot, err := Run(set, fleet, at)
	if err != nil {
		t.Fatal(err)
	}
	check("Run", oneShot)
	obs := ObservationsFromSources(set)
	for _, k := range []int{1, 2, len(obs)} {
		ds := NewResult(at)
		resolveAll(t, NewResolver(fleet, at), ds, obs, k)
		check(fmt.Sprintf("k=%d", k), ds)
	}
}

// TestResolveLateArtifactUpgradesEntry splits one coordinate so the
// carrying source arrives after the entry already exists from a names-only
// observation, in both mirror-recovered and missing variants.
func TestResolveLateArtifactUpgradesEntry(t *testing.T) {
	set, fleet := fixture(t)
	at := day(30)
	a := art("pkg-a") // removed day(2); accumulate mirror synced day(2) while live
	obs := []Observation{
		{Source: sources.Snyk, Coord: a.Coord, ObservedAt: day(3)},                     // batch 1: names-only
		{Source: sources.Backstabber, Coord: a.Coord, ObservedAt: day(2), Artifact: a}, // batch 2: carries
	}
	_ = set
	ds := NewResult(at)
	resolveAll(t, NewResolver(fleet, at), ds, obs, 2)
	e, ok := ds.Entry(a.Coord)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Availability != FromSource || e.RecoveredFrom != "" {
		t.Fatalf("late-carried entry = %v from %q, want from-source", e.Availability, e.RecoveredFrom)
	}
	if !e.ObservedAt.Equal(day(2)) {
		t.Fatalf("ObservedAt = %v, want earliest observation", e.ObservedAt)
	}
	// One-shot over the same two observations must agree on the accounting.
	oneShot := NewResult(at)
	resolveAll(t, NewResolver(fleet, at), oneShot, obs, 1)
	if got, want := ds.SourceStats(), oneShot.SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("partitioned accounting %+v != one-shot %+v", got, want)
	}
}

// TestResolveDoesNotMutateExistingEntry guards against slice aliasing: the
// resolver's merged entry must not share Sources backing with the live
// dataset entry, or its append+sort would reorder the stored entry in place
// (spare capacity lets append write into the shared array) before Upsert
// ever sees the batch.
func TestResolveDoesNotMutateExistingEntry(t *testing.T) {
	_, fleet := fixture(t)
	at := day(30)
	ds := NewResult(at)
	b := art("pkg-b")
	// Append-built source list with spare capacity, as real entries have.
	srcs := make([]sources.ID, 0, 4)
	srcs = append(srcs, sources.Snyk, sources.Tianwen)
	stored := &Entry{Coord: b.Coord, Sources: srcs, Availability: Missing, ObservedAt: day(8)}
	ds.Upsert(stored)

	rv := NewResolver(fleet, at)
	// Backstabber (ID 1) sorts before both existing sources, forcing the
	// merged list to reorder.
	if _, err := rv.Resolve([]Observation{
		{Source: sources.Backstabber, Coord: b.Coord, ObservedAt: day(2), Artifact: b},
	}, ds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored.Sources, []sources.ID{sources.Snyk, sources.Tianwen}) {
		t.Fatalf("resolver mutated the stored entry's sources: %v", stored.Sources)
	}
}

// TestResolveRejectsBadObservations covers the validation surface.
func TestResolveRejectsBadObservations(t *testing.T) {
	_, fleet := fixture(t)
	rv := NewResolver(fleet, day(30))
	ds := NewResult(day(30))
	coord := ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x", Version: "1.0.0"}
	for name, obs := range map[string]Observation{
		"unknown source":   {Source: 99, Coord: coord, ObservedAt: day(1)},
		"no name":          {Source: sources.Snyk, Coord: ecosys.Coord{Ecosystem: ecosys.PyPI, Version: "1"}, ObservedAt: day(1)},
		"no version":       {Source: sources.Snyk, Coord: ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x"}, ObservedAt: day(1)},
		"bad ecosystem":    {Source: sources.Snyk, Coord: ecosys.Coord{Ecosystem: 0, Name: "x", Version: "1"}, ObservedAt: day(1)},
		"foreign artifact": {Source: sources.Backstabber, Coord: coord, ObservedAt: day(1), Artifact: art("other")},
		"pipe in name":     {Source: sources.Snyk, Coord: ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x|PyPI/foo", Version: "1"}, ObservedAt: day(1)},
		"pipe in version":  {Source: sources.Snyk, Coord: ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x", Version: "1|2"}, ObservedAt: day(1)},
	} {
		if _, err := rv.Resolve([]Observation{obs}, ds); !errors.Is(err, ErrBadObservation) {
			t.Errorf("%s: err = %v, want ErrBadObservation", name, err)
		}
	}
	// A names-only artifact attached by an industry feed is dropped, not an
	// error — matching sources.Source.Observe.
	b, err := rv.Resolve([]Observation{
		{Source: sources.Snyk, Coord: art("pkg-b").Coord, ObservedAt: day(8), Artifact: art("pkg-b")},
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if b.Entries[0].Availability == FromSource {
		t.Fatal("industry-feed artifact must not count as source-carried")
	}
}

// flakyView wraps a fleet, failing Recover with a transport error until
// healed. It stands in for a RemoteFleet whose endpoint is down.
type flakyView struct {
	registry.View
	healthy bool
}

var errDown = errors.New("dial tcp: connection refused")

func (f *flakyView) Recover(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, string, error) {
	if !f.healthy {
		return nil, "", errDown
	}
	return f.View.Recover(coord, t)
}

// TestResolveTransportFailureAbortsWithoutMissing is the external-path half
// of the ISSUE 3 bugfix: a transport failure aborts the batch with
// ErrUnresolved, records nothing, and the retry after the endpoint heals
// produces exactly the state a never-failing resolve would have.
func TestResolveTransportFailureAbortsWithoutMissing(t *testing.T) {
	set, fleet := fixture(t)
	at := day(30)
	flaky := &flakyView{View: fleet}
	rv := NewResolver(flaky, at)
	ds := NewResult(at)
	obs := ObservationsFromSources(set)

	if _, err := rv.Resolve(obs, ds); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("err = %v, want ErrUnresolved", err)
	}
	if len(ds.Entries) != 0 {
		t.Fatalf("failed resolve left state behind: %d entries", len(ds.Entries))
	}

	flaky.healthy = true
	resolveAll(t, rv, ds, obs, 1)
	want, err := Run(set, fleet, at)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantStats := ds.SourceStats(), want.SourceStats(); len(ds.Entries) != len(want.Entries) || !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("post-retry state diverged: %d entries %+v, want %d %+v",
			len(ds.Entries), got, len(want.Entries), wantStats)
	}
	if n := len(ds.MissingEntries()); n != len(want.MissingEntries()) {
		t.Fatalf("missing count %d, want %d", n, len(want.MissingEntries()))
	}
}

// TestRunTransportFailureIsNotTakedown is the collect.Run half of the
// bugfix, over real HTTP: a mirror answering 500 must abort the collection
// run, not silently record Missing entries — while a healthy fleet with a
// genuinely removed package still classifies it Missing.
func TestRunTransportFailureIsNotTakedown(t *testing.T) {
	// Root registry that 404s (package removed); mirror that 500s.
	root := registry.New("pypi-root", ecosys.PyPI)
	c := art("pkg-c")
	if err := root.Publish(c, day(1), true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove(c.Coord, day(2)); err != nil {
		t.Fatal(err)
	}
	rootSrv := httptest.NewServer(registry.NewServer(root))
	defer rootSrv.Close()
	brokenMirror := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/info" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"name":"broken","ecosystem":"PyPI"}`))
			return
		}
		http.Error(w, "internal error", http.StatusInternalServerError)
	}))
	defer brokenMirror.Close()

	remote := registry.NewRemoteFleet(rootSrv.Client())
	if err := remote.AddRoot(rootSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := remote.AddMirror(brokenMirror.URL); err != nil {
		t.Fatal(err)
	}

	set := sources.NewSet()
	set.Get(sources.Socket).Observe(c.Coord, day(5), nil)

	if _, err := Run(set, remote, day(30)); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("Run with a 500ing mirror: err = %v, want ErrUnresolved, not recorded Missing", err)
	} else if errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("transport failure mislabeled as not-found: %v", err)
	}
}

// TestSortObservationsMatchesKeyComparator sorts the seed-1, scale-0.5
// observation stream with SortObservations and with the comparator that
// builds both coordinate keys per tied comparison, which it replaces: the
// two must give exactly the same order.
func TestSortObservationsMatchesKeyComparator(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.5 world in -short mode")
	}
	w, err := world.Build(world.Config{Seed: 1, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := observations(w.Sources)
	want := slices.Clone(got)
	SortObservations(got)
	sort.Slice(want, func(i, j int) bool {
		if !want[i].ObservedAt.Equal(want[j].ObservedAt) {
			return want[i].ObservedAt.Before(want[j].ObservedAt)
		}
		ki, kj := want[i].Coord.Key(), want[j].Coord.Key()
		if ki != kj {
			return ki < kj
		}
		return want[i].Source < want[j].Source
	})
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Coord != w.Coord || !g.ObservedAt.Equal(w.ObservedAt) || g.Artifact != w.Artifact {
			t.Fatalf("observation %d of %d: %v %v from %v, comparator gives %v %v from %v",
				i, len(want), g.Coord, g.ObservedAt, g.Source, w.Coord, w.ObservedAt, w.Source)
		}
	}
}

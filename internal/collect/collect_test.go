package collect

import (
	"testing"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
	"malgraph/internal/world"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func day(n int) time.Time { return t0.AddDate(0, 0, n) }

func art(name string) *ecosys.Artifact {
	return ecosys.NewArtifact(
		ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "1.0.0"},
		"d",
		[]ecosys.File{{Path: "setup.py", Content: "import os # " + name}},
	)
}

// fixture builds a hand-crafted scenario:
//   - pkgA: carried by Backstabber (academia) → FromSource
//   - pkgB: names-only via Snyk, alive long enough for the mirror → FromMirror
//   - pkgC: names-only via Socket, removed within the sync gap → Missing
//   - pkgB also observed by Tianwen → occurrence 2, overlap edge
func fixture(t *testing.T) (*sources.Set, *registry.Fleet) {
	t.Helper()
	fleet := registry.NewFleet()
	root := registry.New("pypi-root", ecosys.PyPI)
	fleet.AddRoot(root)
	m, err := registry.NewMirror("tuna", root, registry.SyncAccumulate, day(0), 2*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fleet.AddMirror(m)

	a, b, c := art("pkg-a"), art("pkg-b"), art("pkg-c")
	for _, pub := range []struct {
		a       *ecosys.Artifact
		rel     time.Time
		removed time.Time
	}{
		{a, day(1), day(2)},
		{b, day(3), day(9)}, // alive across syncs at day 4,6,8
		{c, day(4).Add(time.Hour), day(4).Add(20 * time.Hour)}, // inside gap
	} {
		if err := root.Publish(pub.a, pub.rel, true); err != nil {
			t.Fatal(err)
		}
		if err := root.Remove(pub.a.Coord, pub.removed); err != nil {
			t.Fatal(err)
		}
	}

	set := sources.NewSet()
	set.Get(sources.Backstabber).Observe(a.Coord, day(2), a)
	set.Get(sources.Snyk).Observe(b.Coord, day(8), b) // industry: artifact dropped
	set.Get(sources.Tianwen).Observe(b.Coord, day(9), nil)
	set.Get(sources.Socket).Observe(c.Coord, day(5), nil)
	return set, fleet
}

func TestRunAvailabilityChannels(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d", len(res.Entries))
	}

	get := func(name string) *Entry {
		e, ok := res.Entry(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "1.0.0"})
		if !ok {
			t.Fatalf("entry %s missing", name)
		}
		return e
	}
	if e := get("pkg-a"); e.Availability != FromSource || e.Artifact == nil {
		t.Fatalf("pkg-a: %+v", e)
	}
	if e := get("pkg-b"); e.Availability != FromMirror || e.RecoveredFrom != "tuna" {
		t.Fatalf("pkg-b: %+v", e)
	}
	if e := get("pkg-c"); e.Availability != Missing || e.Artifact != nil {
		t.Fatalf("pkg-c: %+v", e)
	}
}

func TestRunMergesObservers(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := res.Entry(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-b", Version: "1.0.0"})
	if e.OccurrenceCount() != 2 {
		t.Fatalf("pkg-b occurrences = %d", e.OccurrenceCount())
	}
	if e.Sources[0] != sources.Snyk || e.Sources[1] != sources.Tianwen {
		t.Fatalf("pkg-b sources = %v", e.Sources)
	}
	if !e.ObservedAt.Equal(day(8)) {
		t.Fatalf("earliest observation = %v", e.ObservedAt)
	}
}

func TestRunReleaseMetadataForMissing(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := res.Entry(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "pkg-c", Version: "1.0.0"})
	if e.ReleasedAt.IsZero() || e.RemovedAt.IsZero() {
		t.Fatal("missing package must still expose registry release metadata (Fig. 7)")
	}
}

func TestPerSourceStats(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	perSource := res.SourceStats()
	bk := perSource[sources.Backstabber]
	if bk.Total != 1 || bk.LocalUnavailable != 0 {
		t.Fatalf("backstabber stats: %+v", bk)
	}
	snyk := perSource[sources.Snyk]
	if snyk.Total != 1 || snyk.LocalUnavailable != 0 { // mirror recovered it
		t.Fatalf("snyk stats: %+v", snyk)
	}
	socket := perSource[sources.Socket]
	if socket.Total != 1 || socket.LocalUnavailable != 1 || socket.GlobalMissing != 1 {
		t.Fatalf("socket stats: %+v", socket)
	}
	if socket.LocalMR() != 1 || socket.GlobalMR() != 1 {
		t.Fatalf("socket MRs: %v %v", socket.LocalMR(), socket.GlobalMR())
	}
}

func TestGlobalSupplementation(t *testing.T) {
	// A package reported names-only by Blogs but carried by Backstabber:
	// locally unavailable for Blogs only if mirrors fail; globally supplied.
	fleet := registry.NewFleet()
	root := registry.New("pypi-root", ecosys.PyPI)
	fleet.AddRoot(root)
	// No mirrors at all: mirror recovery always fails.
	a := art("pkg-x")
	if err := root.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove(a.Coord, day(1)); err != nil {
		t.Fatal(err)
	}
	set := sources.NewSet()
	set.Get(sources.Blogs).Observe(a.Coord, day(1), nil)
	set.Get(sources.Backstabber).Observe(a.Coord, day(2), a)

	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	blogs := res.SourceStats()[sources.Blogs]
	if blogs.LocalUnavailable != 1 {
		t.Fatalf("blogs local: %+v", blogs)
	}
	if blogs.GlobalMissing != 0 {
		t.Fatalf("blogs global must be supplemented by Backstabber: %+v", blogs)
	}
	e, _ := res.Entry(a.Coord)
	if e.Availability != FromSource {
		t.Fatalf("entry availability: %v", e.Availability)
	}
}

func TestTotalMRAndPartitions(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalMR(); got < 0.32 || got > 0.35 { // 1 of 3
		t.Fatalf("TotalMR = %v", got)
	}
	if len(res.Available())+len(res.MissingEntries()) != len(res.Entries) {
		t.Fatal("available+missing must partition entries")
	}
}

func TestRunNilInputs(t *testing.T) {
	if _, err := Run(nil, nil, day(0)); err == nil {
		t.Fatal("nil inputs must error")
	}
}

func TestRunOnSmallWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("world integration in -short mode")
	}
	w, err := world.Build(world.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w.Sources, w.Fleet, w.Config.CollectAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != w.TotalPackages() {
		t.Fatalf("collection lost packages: %d vs %d", len(res.Entries), w.TotalPackages())
	}
	// Shape assertions against the paper:
	// academia + DataDog have ~0 local missing rate.
	for _, id := range []sources.ID{sources.Backstabber, sources.Maloss, sources.MalPyPI, sources.DataDog} {
		if mr := res.SourceStats()[id].LocalMR(); mr > 0.01 {
			t.Errorf("%s local MR = %v, want ~0", id, mr)
		}
	}
	// Socket is the worst industry source (paper: 100%).
	if mr := res.SourceStats()[sources.Socket].LocalMR(); mr < 0.6 {
		t.Errorf("Socket local MR = %v, want high", mr)
	}
	// The overall missing rate lands in the paper's neighbourhood (39.27%).
	if total := res.TotalMR(); total < 0.2 || total > 0.6 {
		t.Errorf("TotalMR = %v, want ≈0.39", total)
	}
	// Recovered artifacts hash identically to ground truth.
	checked := 0
	for _, e := range res.Available() {
		rec, ok := w.Record(e.Coord)
		if !ok {
			t.Fatalf("unknown entry %s", e.Coord)
		}
		if e.Artifact.Hash() != rec.Artifact.Hash() {
			t.Fatalf("artifact corruption for %s", e.Coord)
		}
		checked++
		if checked > 200 {
			break
		}
	}
}

package registry

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"malgraph/internal/ecosys"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func day(n int) time.Time { return t0.AddDate(0, 0, n) }

func art(name, version string) *ecosys.Artifact {
	return ecosys.NewArtifact(
		ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: version},
		"test package",
		[]ecosys.File{{Path: "setup.py", Content: "print('" + name + "')\n"}},
	)
}

func TestPublishAndFetch(t *testing.T) {
	r := New("pypi-root", ecosys.PyPI)
	a := art("urllib", "1.0.0")
	if err := r.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	got, err := r.Fetch(a.Coord, day(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != a.Hash() {
		t.Fatal("fetched artifact differs")
	}
	if _, err := r.Fetch(a.Coord, day(-1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pre-release fetch: %v", err)
	}
}

func TestPublishDuplicate(t *testing.T) {
	r := New("root", ecosys.PyPI)
	a := art("x", "1.0.0")
	if err := r.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(art("x", "1.0.0"), day(1), true); !errors.Is(err, ErrAlreadyPublished) {
		t.Fatalf("want ErrAlreadyPublished, got %v", err)
	}
}

func TestPublishWrongEcosystem(t *testing.T) {
	r := New("root", ecosys.NPM)
	if err := r.Publish(art("x", "1.0.0"), day(0), true); err == nil {
		t.Fatal("cross-ecosystem publish must fail")
	}
}

func TestRemoveLifecycle(t *testing.T) {
	r := New("root", ecosys.PyPI)
	a := art("x", "1.0.0")
	if err := r.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(a.Coord, day(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fetch(a.Coord, day(1)); err != nil {
		t.Fatalf("pre-removal fetch: %v", err)
	}
	if _, err := r.Fetch(a.Coord, day(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-removal fetch: %v", err)
	}
	// Metadata survives removal (used for Fig. 7 timeline of missing pkgs).
	rel, ok := r.Release(a.Coord)
	if !ok || !rel.Removed() {
		t.Fatal("release metadata lost after removal")
	}
	if err := r.Remove(a.Coord, day(4)); !errors.Is(err, ErrAlreadyRemoved) {
		t.Fatalf("double remove: %v", err)
	}
	if err := r.Remove(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "none", Version: "1"}, day(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
}

func TestRemoveBeforeRelease(t *testing.T) {
	r := New("root", ecosys.PyPI)
	a := art("x", "1.0.0")
	if err := r.Publish(a, day(5), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(a.Coord, day(1)); err == nil {
		t.Fatal("removal before release must fail")
	}
}

func TestLedgerOrderAndState(t *testing.T) {
	r := New("root", ecosys.PyPI)
	for i := 0; i < 5; i++ {
		if err := r.Publish(art("p", "1.0."+string(rune('0'+i))), day(i), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.Remove(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "p", Version: "1.0.0"}, day(9))
	ledger := r.Ledger()
	if len(ledger) != 5 {
		t.Fatalf("ledger size %d", len(ledger))
	}
	for i := 1; i < len(ledger); i++ {
		if ledger[i].ReleasedAt.Before(ledger[i-1].ReleasedAt) {
			t.Fatal("ledger out of publish order")
		}
	}
	if !ledger[0].Removed() {
		t.Fatal("ledger must reflect current takedown state")
	}
}

func TestMirrorSnapshotLag(t *testing.T) {
	root := New("root", ecosys.PyPI)
	a := art("x", "1.0.0")
	if err := root.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	// Mirror syncs every 7 days starting day 0.
	m, err := NewMirror("m1", root, SyncSnapshot, day(0), 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Root removes the package on day 8 (after the day-7 sync captured it).
	if err := root.Remove(a.Coord, day(8)); err != nil {
		t.Fatal(err)
	}
	// Day 9: root no longer has it, but mirror's last sync (day 7) saw it
	// live — the §II-B recovery window.
	if _, err := root.Fetch(a.Coord, day(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("root should have removed it: %v", err)
	}
	if !m.Has(a.Coord, day(9)) {
		t.Fatal("mirror should lag and still hold the package")
	}
	// Day 14+: next sync replicates the removal.
	if m.Has(a.Coord, day(15)) {
		t.Fatal("snapshot mirror must drop removed package after next sync")
	}
}

func TestMirrorMissesShortLivedPackage(t *testing.T) {
	root := New("root", ecosys.PyPI)
	a := art("flash", "1.0.0")
	// Released day 1, removed day 2 — between the day-0 and day-7 syncs.
	if err := root.Publish(a, day(1), true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove(a.Coord, day(2)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SyncMode{SyncSnapshot, SyncAccumulate} {
		m, err := NewMirror("m", root, mode, day(0), 7*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if m.Has(a.Coord, day(30)) {
			t.Fatalf("mode %d: mirror can never have seen a package whose life fit inside the sync gap (Fig. 8 cause 2)", mode)
		}
	}
}

func TestAccumulateMirrorKeepsForever(t *testing.T) {
	root := New("root", ecosys.PyPI)
	a := art("keep", "1.0.0")
	if err := root.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove(a.Coord, day(10)); err != nil {
		t.Fatal(err)
	}
	m, err := NewMirror("arch", root, SyncAccumulate, day(0), 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(a.Coord, day(1000)) {
		t.Fatal("accumulate mirror must retain once-seen packages")
	}
	got, err := m.Fetch(a.Coord, day(1000))
	if err != nil || got.Hash() != a.Hash() {
		t.Fatalf("accumulate fetch: %v", err)
	}
}

func TestMirrorBeforeEpoch(t *testing.T) {
	root := New("root", ecosys.PyPI)
	m, err := NewMirror("m", root, SyncSnapshot, day(10), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LastSync(day(5)); ok {
		t.Fatal("no sync can exist before the epoch")
	}
	if m.Has(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: "x", Version: "1"}, day(5)) {
		t.Fatal("mirror before epoch must be empty")
	}
}

func TestMirrorRejectsBadPeriod(t *testing.T) {
	root := New("root", ecosys.PyPI)
	if _, err := NewMirror("m", root, SyncSnapshot, day(0), 0); err == nil {
		t.Fatal("zero period must be rejected")
	}
}

func TestMirrorSubsetOfRootHistory(t *testing.T) {
	// Property: a mirror never holds a coordinate the root never published,
	// and everything it serves hashes identically to the root's archive.
	root := New("root", ecosys.PyPI)
	m, err := NewMirror("m", root, SyncAccumulate, day(0), 3*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rel uint8, life uint8, query uint8) bool {
		name := "p" + time.Now().Format("150405.000000000") // unique per call
		a := art(name, "1.0.0")
		releasedAt := day(int(rel % 40))
		if err := root.Publish(a, releasedAt, true); err != nil {
			return false
		}
		if life%5 != 0 { // most packages get removed
			if err := root.Remove(a.Coord, releasedAt.AddDate(0, 0, int(life%30)+1)); err != nil {
				return false
			}
		}
		q := day(int(query) % 200)
		if m.Has(a.Coord, q) {
			got, err := m.Fetch(a.Coord, q)
			if err != nil || got.Hash() != a.Hash() {
				return false
			}
		}
		// Unknown coordinate is never present.
		return !m.Has(ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name + "-ghost", Version: "9"}, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFleetRecoverPrefersRootThenMirrors(t *testing.T) {
	root := New("pypi-root", ecosys.PyPI)
	fleet := NewFleet()
	fleet.AddRoot(root)
	m, err := NewMirror("tuna", root, SyncSnapshot, day(0), 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fleet.AddMirror(m)

	a := art("x", "1.0.0")
	if err := root.Publish(a, day(0), true); err != nil {
		t.Fatal(err)
	}
	// While live: recovered from root.
	_, from, err := fleet.Recover(a.Coord, day(1))
	if err != nil || from != "pypi-root" {
		t.Fatalf("recover live: from=%q err=%v", from, err)
	}
	// Removed day 8, queried day 9: recovered from mirror.
	if err := root.Remove(a.Coord, day(8)); err != nil {
		t.Fatal(err)
	}
	_, from, err = fleet.Recover(a.Coord, day(9))
	if err != nil || from != "tuna" {
		t.Fatalf("recover via mirror: from=%q err=%v", from, err)
	}
	// Day 20: mirror synced the removal; nothing has it.
	_, _, err = fleet.Recover(a.Coord, day(20))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("recover after full sync: %v", err)
	}
	if want := "registry: package not found: " + a.Coord.String() + " (root and all mirrors)"; err.Error() != want {
		t.Fatalf("not-found message %q, want %q", err.Error(), want)
	}
}

func TestFleetUnknownEcosystem(t *testing.T) {
	fleet := NewFleet()
	if _, _, err := fleet.Recover(ecosys.Coord{Ecosystem: ecosys.Rust, Name: "x", Version: "1"}, day(0)); err == nil {
		t.Fatal("unknown ecosystem must not recover")
	}
}

func TestFleetRootsSorted(t *testing.T) {
	fleet := NewFleet()
	fleet.AddRoot(New("npm", ecosys.NPM))
	fleet.AddRoot(New("pypi", ecosys.PyPI))
	roots := fleet.Roots()
	if len(roots) != 2 || roots[0].Ecosystem() != ecosys.PyPI {
		t.Fatalf("roots order wrong: %v", roots)
	}
}

// Has reports whether the mirror holds the coordinate at time t (see
// fetch for the snapshot and accumulate semantics).
func (m *Mirror) Has(coord ecosys.Coord, t time.Time) bool {
	_, ok := m.fetch(coord.Key(), t)
	return ok
}

package collect

// Property-based tests for the collection pipeline's invariants
// (DESIGN.md §6).

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
	"malgraph/internal/xrand"
)

// randomScenario builds a root+mirror fleet and a random observation pattern
// from raw bytes, returning the expected union of coordinates.
func randomScenario(raw []byte) (*sources.Set, *registry.Fleet, map[string]bool, error) {
	fleet := registry.NewFleet()
	root := registry.New("root", ecosys.PyPI)
	fleet.AddRoot(root)
	m, err := registry.NewMirror("m", root, registry.SyncAccumulate, day(0), 3*24*time.Hour)
	if err != nil {
		return nil, nil, nil, err
	}
	fleet.AddMirror(m)

	set := sources.NewSet()
	catalog := sources.Catalog()
	union := make(map[string]bool)
	for i, b := range raw {
		name := fmt.Sprintf("p%03d", i)
		a := ecosys.NewArtifact(
			ecosys.Coord{Ecosystem: ecosys.PyPI, Name: name, Version: "1.0.0"},
			"d", []ecosys.File{{Path: "setup.py", Content: name}},
		)
		rel := day(int(b % 50))
		if err := root.Publish(a, rel, true); err != nil {
			return nil, nil, nil, err
		}
		if err := root.Remove(a.Coord, rel.Add(time.Duration(1+b%90)*time.Hour)); err != nil {
			return nil, nil, nil, err
		}
		// 1–3 observers chosen from the byte.
		nObs := 1 + int(b%3)
		for k := 0; k < nObs; k++ {
			info := catalog[(int(b)+k*3)%len(catalog)]
			set.Get(info.ID).Observe(a.Coord, rel.Add(time.Hour), a)
		}
		union[a.Coord.Key()] = true
	}
	return set, fleet, union, nil
}

// TestCollectionLosesNothing: |dataset| equals |union of source records|,
// every entry's observer list is sorted and non-empty, and availability
// partitions correctly.
func TestCollectionLosesNothing(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 120 {
			raw = raw[:120]
		}
		set, fleet, union, err := randomScenario(raw)
		if err != nil {
			t.Logf("scenario: %v", err)
			return false
		}
		res, err := Run(set, fleet, day(400))
		if err != nil {
			return false
		}
		if len(res.Entries) != len(union) {
			return false
		}
		for _, e := range res.Entries {
			if !union[e.Coord.Key()] {
				return false
			}
			if len(e.Sources) == 0 {
				return false
			}
			for i := 1; i < len(e.Sources); i++ {
				if e.Sources[i-1] >= e.Sources[i] {
					return false
				}
			}
			switch e.Availability {
			case FromSource, FromMirror:
				if e.Artifact == nil {
					return false
				}
			case Missing:
				if e.Artifact != nil {
					return false
				}
			default:
				return false
			}
		}
		return len(res.Available())+len(res.MissingEntries()) == len(res.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredHashesMatchGroundTruth: any artifact the pipeline obtains
// hashes identically to what the attacker published.
func TestRecoveredHashesMatchGroundTruth(t *testing.T) {
	rng := xrand.New(8)
	raw := make([]byte, 60)
	for i := range raw {
		raw[i] = byte(rng.Intn(256))
	}
	set, fleet, _, err := randomScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(set, fleet, day(400))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fleet.Root(ecosys.PyPI)
	for _, e := range res.Available() {
		truth, ok := root.Archive(e.Coord)
		if !ok {
			t.Fatalf("no ground truth for %s", e.Coord)
		}
		if truth.Hash() != e.Artifact.Hash() {
			t.Fatalf("hash mismatch for %s", e.Coord)
		}
	}
}

// TestPerSourceTotalsConsistent: Σ per-source totals ≥ |entries| (overlap
// counts once per source) and per-source missing ≤ total.
func TestPerSourceTotalsConsistent(t *testing.T) {
	rng := xrand.New(9)
	raw := make([]byte, 80)
	for i := range raw {
		raw[i] = byte(rng.Intn(256))
	}
	set, fleet, _, err := randomScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(set, fleet, day(400))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for id, st := range res.SourceStats() {
		if st.LocalUnavailable > st.Total || st.GlobalMissing > st.LocalUnavailable {
			t.Fatalf("source %v stats inconsistent: %+v", id, st)
		}
		sum += st.Total
	}
	if sum < len(res.Entries) {
		t.Fatalf("per-source totals %d < entries %d", sum, len(res.Entries))
	}
}

package collect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDatasetRoundTripFull(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, ExportFull); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(res.Entries) {
		t.Fatalf("entries %d != %d", len(back.Entries), len(res.Entries))
	}
	if back.TotalMR() != res.TotalMR() {
		t.Fatalf("missing rate changed: %v vs %v", back.TotalMR(), res.TotalMR())
	}
	for i, e := range res.Entries {
		b := back.Entries[i]
		if e.Coord != b.Coord || e.Availability != b.Availability {
			t.Fatalf("entry %d mismatch", i)
		}
		if (e.Artifact == nil) != (b.Artifact == nil) {
			t.Fatalf("entry %d artifact presence mismatch", i)
		}
		if e.Artifact != nil && e.Artifact.Hash() != b.Artifact.Hash() {
			t.Fatalf("entry %d artifact corrupted", i)
		}
	}
	for id, st := range res.PerSource {
		if back.PerSource[id] != st {
			t.Fatalf("per-source stats mismatch for %v", id)
		}
	}
}

func TestDatasetPublicOmitsArtifacts(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, ExportPublic); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if strings.Contains(raw, "\"artifact\"") {
		t.Fatal("public export leaked artifacts")
	}
	if !strings.Contains(raw, "\"hash\"") {
		t.Fatal("public export must keep hashes for later verification")
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range back.Entries {
		if e.Artifact != nil {
			t.Fatal("artifacts materialised from public export")
		}
	}
	// Accounting survives even without artifacts.
	if back.TotalMR() != res.TotalMR() {
		t.Fatalf("public export changed accounting")
	}
}

func TestReadJSONRejectsTamperedArtifact(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, ExportFull); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), "import os", "import evil", 1)
	if _, err := ReadJSON(strings.NewReader(tampered)); err == nil {
		t.Fatal("tampered artifact must fail hash verification")
	}
}

// badPerSource lists perSource objects whose keys are not the canonical
// decimal ID of a known source — including two spellings of source 3 at once.
var badPerSource = []string{
	`{"3x":{}}`, `{"3 4":{}}`, `{"-2":{}}`, `{"+3":{}}`, `{"03":{}}`,
	`{"0":{}}`, `{"99":{}}`, `{"":{}}`, `{"3":{},"03":{}}`,
}

func TestReadJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad JSON must error")
	}
	doc := func(perSource string) string {
		return `{"mode":"public","collectedAt":"2024-01-01T00:00:00Z","perSource":` + perSource + `,"entries":[]}`
	}
	res, err := ReadJSON(strings.NewReader(doc(`{"3":{"Total":2},"10":{"Total":1}}`)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSource[3].Total != 2 || res.PerSource[10].Total != 1 || len(res.PerSource) != 2 {
		t.Fatalf("canonical perSource decoded as %v", res.PerSource)
	}
	for _, ps := range badPerSource {
		if _, err := ReadJSON(strings.NewReader(doc(ps))); err == nil {
			t.Errorf("perSource %s: ReadJSON accepted it", ps)
		}
	}
}

func TestAssembleResultBadSourceIDs(t *testing.T) {
	header := func(perSource string) ResultHeader {
		h := ResultHeader{}
		if err := json.Unmarshal([]byte(perSource), &h.PerSource); err != nil {
			t.Fatal(err)
		}
		return h
	}
	res, err := AssembleResult(header(`{"3":{"Total":2}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSource[3].Total != 2 || len(res.PerSource) != 1 {
		t.Fatalf("canonical perSource assembled as %v", res.PerSource)
	}
	for _, ps := range badPerSource {
		if _, err := AssembleResult(header(ps), nil); err == nil {
			t.Errorf("perSource %s: AssembleResult accepted it", ps)
		}
	}
}

func TestSupplement(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	missingBefore := len(res.MissingEntries())
	if missingBefore == 0 {
		t.Fatal("fixture should have a missing package")
	}

	// A community member had archived pkg-c: build a donor dataset carrying
	// its artifact.
	donor := &Result{}
	c := art("pkg-c")
	donorEntry := &Entry{Coord: c.Coord, Artifact: c, Availability: FromSource}
	donor.Entries = append(donor.Entries, donorEntry)
	// Plus an unrelated artifact that must NOT be absorbed.
	x := art("pkg-unknown")
	donor.Entries = append(donor.Entries, &Entry{Coord: x.Coord, Artifact: x, Availability: FromSource})

	upgraded := res.Supplement(donor)
	if upgraded != 1 {
		t.Fatalf("upgraded = %d", upgraded)
	}
	if len(res.MissingEntries()) != missingBefore-1 {
		t.Fatal("missing count did not drop")
	}
	e, _ := res.Entry(c.Coord)
	if e.Artifact == nil || e.RecoveredFrom != "supplement" {
		t.Fatalf("supplemented entry = %+v", e)
	}
	if _, ok := res.Entry(x.Coord); ok {
		t.Fatal("supplement must not add new coordinates")
	}
}

package collect

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
)

// viaManifest encodes res as a segmented checkpoint does — the header, and
// one record per entry with a stand-in blob ref for its artifact — and
// decodes it back, attaching attach(artifact) for each ref as the restore
// attaches the fetched blob.
func viaManifest(t *testing.T, res *Result, attach func(*ecosys.Artifact) *ecosys.Artifact) (ResultHeader, []DecodedEntry) {
	t.Helper()
	raw, err := json.Marshal(res.EncodeHeader())
	if err != nil {
		t.Fatal(err)
	}
	var h ResultHeader
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	var out []DecodedEntry
	for _, e := range res.Entries {
		ref := ""
		if e.Artifact != nil {
			ref = "blob-" + e.Coord.Key()
		}
		rec, err := res.EncodeEntry(e, ref)
		if err != nil {
			t.Fatal(err)
		}
		de, err := DecodeEntry(rec)
		if err != nil {
			t.Fatal(err)
		}
		if de.BlobRef != ref || de.Entry.Artifact != nil {
			t.Fatalf("entry %s: decoded blob ref %q (artifact inline: %v), want %q", e.Coord, de.BlobRef, de.Entry.Artifact != nil, ref)
		}
		if ref != "" {
			de.Entry.Artifact = attach(e.Artifact)
		}
		out = append(out, de)
	}
	return h, out
}

// TestDatasetRoundTripFull: a dataset encoded entry by entry and assembled
// back keeps every entry, artifact, per-source total and per-entry stat.
func TestDatasetRoundTripFull(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	back, err := AssembleResult(viaManifest(t, res, func(a *ecosys.Artifact) *ecosys.Artifact { return a }))
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
		if e.Coord != b.Coord || e.Availability != b.Availability || e.RecoveredFrom != b.RecoveredFrom ||
			!reflect.DeepEqual(e.Sources, b.Sources) || !e.ObservedAt.Equal(b.ObservedAt) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, b, e)
		}
		if (e.Artifact == nil) != (b.Artifact == nil) {
			t.Fatalf("entry %d artifact presence mismatch", i)
		}
		if e.Artifact != nil && e.Artifact.Hash() != b.Artifact.Hash() {
			t.Fatalf("entry %d artifact corrupted", i)
		}
		want, _ := res.EntryStatFor(e.Coord.Key())
		if got, _ := back.EntryStatFor(e.Coord.Key()); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d stat %+v, want %+v", i, got, want)
		}
		if got, ok := back.Entry(e.Coord); !ok || got != b {
			t.Fatalf("entry %d is not indexed by its coordinate", i)
		}
	}
	if !reflect.DeepEqual(back.PerSource, res.PerSource) {
		t.Fatalf("per-source stats %v, want %v", back.PerSource, res.PerSource)
	}
	if _, err := DecodeEntry([]byte("{nope")); err == nil {
		t.Fatal("DecodeEntry accepted a malformed record")
	}
}

// TestDecodeEntryRefusesForeignRecords: a manifest entry record that
// EncodeEntry cannot write is refused, naming what is wrong with it.
func TestDecodeEntryRefusesForeignRecords(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	var withArt *Entry
	for _, e := range res.Entries {
		if e.Artifact != nil {
			withArt = e
			break
		}
	}
	if withArt == nil {
		t.Fatal("fixture has no entry with an artifact")
	}
	rec, err := res.EncodeEntry(withArt, "blob-ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(rec); err != nil {
		t.Fatalf("DecodeEntry refused EncodeEntry's own record: %v", err)
	}
	art, err := json.Marshal(withArt.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(map[string]json.RawMessage)) []byte {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec, &fields); err != nil {
			t.Fatal(err)
		}
		f(fields)
		out, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name, want string
		rec        []byte
	}{
		{"inline artifact", "inline artifact", edit(func(m map[string]json.RawMessage) { m["artifact"] = art })},
		{"inline artifact without blob", "inline artifact", edit(func(m map[string]json.RawMessage) {
			m["artifact"] = art
			delete(m, "blob")
		})},
		{"hash without blob", "artifact hash without a blob", edit(func(m map[string]json.RawMessage) { delete(m, "blob") })},
	} {
		_, err := DecodeEntry(tc.rec)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), withArt.Coord.String()) {
			t.Errorf("%s: DecodeEntry error %v, want one naming %s and %q", tc.name, err, withArt.Coord, tc.want)
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
	// Accounting survives even without artifacts.
	var p persistedResult
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	perSource, err := decodePerSource(p.PerSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != len(res.Entries) || !reflect.DeepEqual(perSource, res.PerSource) {
		t.Fatalf("public export carries %d entries and per-source %v, want %d and %v",
			len(p.Entries), perSource, len(res.Entries), res.PerSource)
	}
}

// TestAssembleResultRejectsTamperedArtifact: an artifact whose content no
// longer hashes to its entry's recorded hash is refused.
func TestAssembleResultRejectsTamperedArtifact(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	h, entries := viaManifest(t, res, func(a *ecosys.Artifact) *ecosys.Artifact {
		files := append([]ecosys.File(nil), a.Files...)
		for i := range files {
			files[i].Content = strings.Replace(files[i].Content, "import os", "import evil", 1)
		}
		tampered++
		return ecosys.NewArtifact(a.Coord, a.Description, files)
	})
	if tampered == 0 {
		t.Fatal("fixture carries no artifact")
	}
	if _, err := AssembleResult(h, entries); err == nil || !strings.Contains(err.Error(), "artifact hash mismatch") {
		t.Fatalf("tampered artifact: AssembleResult error %v, want a hash mismatch", err)
	}
}

// badPerSource lists perSource objects whose keys are not the canonical
// decimal ID of a known source — including two spellings of source 3 at once.
var badPerSource = []string{
	`{"3x":{}}`, `{"3 4":{}}`, `{"-2":{}}`, `{"+3":{}}`, `{"03":{}}`,
	`{"0":{}}`, `{"99":{}}`, `{"":{}}`, `{"3":{},"03":{}}`,
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

package collect

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
)

// viaManifest encodes res as a segmented checkpoint does — the header, and
// one record per entry with a stand-in blob ref for its artifact — and
// decodes it back, the artifacts not yet attached.
func viaManifest(t *testing.T, res *Result) (ResultHeader, []DecodedEntry) {
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
		rec, err := EncodeEntry(e, ref)
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
		out = append(out, de)
	}
	return h, out
}

// TestDatasetRoundTripFull: a dataset encoded entry by entry and rebuilt
// as a restore rebuilds it — each artifact attached and verified, the
// entries, each with its stat, upserted as one batch — keeps every entry,
// artifact, per-entry stat and so every per-source total.
func TestDatasetRoundTripFull(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	h, decoded := viaManifest(t, res)
	back := NewResult(h.CollectedAt)
	entries := make([]*Entry, len(decoded))
	for i := range decoded {
		de := &decoded[i]
		if de.BlobRef != "" {
			orig, _ := res.Entry(de.Entry.Coord)
			if err := de.AttachArtifact(orig.Artifact); err != nil {
				t.Fatal(err)
			}
		}
		entries[i] = de.Entry
	}
	back.UpsertBatch(entries)
	if !back.CollectedAt.Equal(res.CollectedAt) {
		t.Fatalf("collected at %v, want %v", back.CollectedAt, res.CollectedAt)
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
		if e.Stat == nil || !reflect.DeepEqual(b.Stat, e.Stat) {
			t.Fatalf("entry %d stat %+v, want %+v", i, b.Stat, e.Stat)
		}
		if got, ok := back.Entry(e.Coord); !ok || got != b {
			t.Fatalf("entry %d is not indexed by its coordinate", i)
		}
	}
	if got, want := back.SourceStats(), res.SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-source stats %v, want %v", got, want)
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
	rec, err := EncodeEntry(withArt, "blob-ref")
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
	want := make(map[string]SourceStats)
	for id, st := range res.SourceStats() {
		want[strconv.Itoa(int(id))] = st
	}
	if len(p.Entries) != len(res.Entries) || !reflect.DeepEqual(p.SourceStats, want) {
		t.Fatalf("public export carries %d entries and per-source %v, want %d and %v",
			len(p.Entries), p.SourceStats, len(res.Entries), want)
	}
}

// TestAttachArtifactRejectsTampered: an artifact whose content no longer
// hashes to its entry's recorded hash is refused, naming the coordinate,
// and stays unattached; the untampered artifact attaches.
func TestAttachArtifactRejectsTampered(t *testing.T) {
	set, fleet := fixture(t)
	res, err := Run(set, fleet, day(30))
	if err != nil {
		t.Fatal(err)
	}
	_, decoded := viaManifest(t, res)
	tampered := 0
	for i := range decoded {
		de := &decoded[i]
		if de.BlobRef == "" {
			continue
		}
		orig, _ := res.Entry(de.Entry.Coord)
		files := append([]ecosys.File(nil), orig.Artifact.Files...)
		for j := range files {
			files[j].Content += "\nimport evil\n"
		}
		err := de.AttachArtifact(ecosys.NewArtifact(orig.Coord, orig.Artifact.Description, files))
		if err == nil || !strings.Contains(err.Error(), "manifest decode: artifact hash mismatch for "+de.Entry.Coord.String()) {
			t.Fatalf("tampered artifact of %s: AttachArtifact error %v, want a hash mismatch naming it", de.Entry.Coord, err)
		}
		if de.Entry.Artifact != nil {
			t.Fatalf("tampered artifact of %s attached", de.Entry.Coord)
		}
		if err := de.AttachArtifact(orig.Artifact); err != nil || de.Entry.Artifact != orig.Artifact {
			t.Fatalf("untampered artifact of %s: AttachArtifact error %v", de.Entry.Coord, err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("fixture carries no artifact")
	}
}

package castore

// Contracts under test for the segment format: a binary segment decodes
// the same through the index path (Open) and the body path (Session.Fetch),
// hostile bytes fail both with an error and never a panic, every accepted
// blob is a slice of the file itself, and JSON segments written by older
// stores stay readable until Compact rewrites them into the binary layout.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeBytes renders blobs as one binary segment.
func encodeBytes(t testing.TB, blobs []Blob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSegment(&buf, blobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyBytes renders blobs as a JSON segment, exactly as the JSON segment
// writer encoded it.
func legacyBytes(t testing.TB, blobs []Blob) []byte {
	t.Helper()
	seg := legacySegment{Blobs: blobs}
	for _, b := range blobs {
		seg.Hashes = append(seg.Hashes, b.Key)
	}
	data, err := json.Marshal(seg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// hostileSegment is one malformed segment file.
type hostileSegment struct {
	name string
	data []byte
}

// hostileSegments derives malformed files from valid, a binary segment
// holding at least one blob.
func hostileSegments(valid []byte) []hostileSegment {
	with := func(edit func([]byte)) []byte {
		data := bytes.Clone(valid)
		edit(data)
		return data
	}
	return []hostileSegment{
		{"wrong-magic", with(func(d []byte) { d[0] = 'X' })},
		{"truncated-header", bytes.Clone(valid[:headerSize-1])},
		{"count-overruns-file", with(func(d []byte) {
			binary.LittleEndian.PutUint32(d[len(segMagic):], uint32(len(valid)))
		})},
		{"length-past-eof", with(func(d []byte) {
			binary.LittleEndian.PutUint32(d[headerSize+sha256.Size:], uint32(len(valid)))
		})},
		{"trailing-bytes", append(bytes.Clone(valid), 'x')},
		{"zero-length", []byte{}},
	}
}

func TestHostileSegmentBytesFailCleanly(t *testing.T) {
	blobs := []Blob{blobOf("alpha"), blobOf("beta")}
	for _, tc := range hostileSegments(encodeBytes(t, blobs)) {
		t.Run(tc.name, func(t *testing.T) {
			// Index path: Open refuses a directory holding the file.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seg-00000001.json"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, nil); err == nil {
				t.Fatal("Open indexed a malformed segment")
			}
			// Body path: a store that indexed the valid segment finds the
			// file replaced under it.
			dir = t.TempDir()
			st, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(blobs); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "seg-00000001.json"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = st.Session().Fetch([]string{blobs[0].Key})
			if err == nil {
				t.Fatal("Session.Fetch served a blob from a malformed segment")
			}
			if strings.Contains(err.Error(), "content hashes to") {
				t.Fatalf("malformed framing got past the decoder: %v", err)
			}
		})
	}
}

// TestLegacyJSONSegmentReadAndCompacted: a store holding a JSON segment from
// an older writer plus a binary one opens, fetches and verifies both, and
// Compact leaves one binary segment carrying every live blob.
func TestLegacyJSONSegmentReadAndCompacted(t *testing.T) {
	dir := t.TempDir()
	old := []Blob{blobOf("legacy-1"), blobOf("legacy-2")}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.json"), legacyBytes(t, old), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := blobOf("binary-1")
	if n, err := st.Append([]Blob{fresh, old[0]}); err != nil || n != 1 {
		t.Fatalf("Append next to a legacy segment = %d, %v; want 1 new blob", n, err)
	}
	all := append(append([]Blob(nil), old...), fresh)
	if st.Len() != 3 || st.SegmentCount() != 2 {
		t.Fatalf("mixed store: Len=%d SegmentCount=%d, want 3 and 2", st.Len(), st.SegmentCount())
	}
	fetchAll(t, st, all)
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, re, all)

	// A tampered legacy blob still fails its content-hash check.
	legacyPath := filepath.Join(dir, "seg-00000001.json")
	raw, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"legacy-2"`), []byte(`"legacy-X"`), 1)
	if err := os.WriteFile(legacyPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Session().Fetch([]string{old[1].Key}); err == nil {
		t.Fatal("a tampered legacy blob verified")
	}
	if err := os.WriteFile(legacyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	live := map[string]bool{}
	for _, b := range all {
		live[b.Key] = true
	}
	if compacted, err := re.Compact(live); err != nil || !compacted {
		t.Fatalf("Compact = %v, %v", compacted, err)
	}
	if re.SegmentCount() != 1 || re.Len() != 3 {
		t.Fatalf("after compact: SegmentCount=%d Len=%d, want 1 and 3", re.SegmentCount(), re.Len())
	}
	fetchAll(t, re, all)
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("compacted store holds %d files, want 1", len(names))
	}
	merged, err := os.ReadFile(filepath.Join(dir, names[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(merged, []byte(segMagic)) {
		t.Fatalf("compacted segment %s is not binary: %.40q", names[0].Name(), merged)
	}
	again, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, again, all)
}

// FuzzReadSegment feeds arbitrary bytes to both segment decoders. Neither
// may panic; a binary segment must be accepted by both or by neither, with
// the same keys; and every accepted blob must be the file's own bytes at
// its framed offset — never memory outside the file.
func FuzzReadSegment(f *testing.F) {
	two := []Blob{blobOf("alpha"), blobOf("beta")}
	valid := encodeBytes(f, two)
	f.Add(valid)
	f.Add(legacyBytes(f, two))
	for _, tc := range hostileSegments(valid) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blobs, err := decodeSegment(data)
		keys, ierr := decodeIndex(bytes.NewReader(data), int64(len(data)))
		if isLegacy(data) {
			// JSON segments carry copies of their blobs' raw bytes.
			for _, b := range blobs {
				if !bytes.Contains(data, b.Data) {
					t.Fatalf("legacy blob %s is not in the file", b.Key)
				}
			}
			return
		}
		if (err == nil) != (ierr == nil) {
			t.Fatalf("body path err = %v, index path err = %v", err, ierr)
		}
		if err != nil {
			return
		}
		if len(keys) != len(blobs) {
			t.Fatalf("index holds %d keys, body path %d blobs", len(keys), len(blobs))
		}
		off := headerSize + len(blobs)*entrySize
		for i, b := range blobs {
			if keys[i] != b.Key {
				t.Fatalf("blob %d: index key %s, body key %s", i, keys[i], b.Key)
			}
			end := off + len(b.Data)
			if end > len(data) || cap(b.Data) != len(b.Data) {
				t.Fatalf("blob %d: [%d:%d] cap %d escapes the %d-byte file", i, off, end, cap(b.Data), len(data))
			}
			if len(b.Data) > 0 && &b.Data[0] != &data[off] {
				t.Fatalf("blob %d is not the file's bytes at offset %d", i, off)
			}
			off = end
		}
		if off != len(data) {
			t.Fatalf("blobs end at %d of %d bytes", off, len(data))
		}
	})
}

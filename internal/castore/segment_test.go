package castore

// Contracts under test for the segment format: a binary segment decodes
// the same through the index path (Open) and the body path (Session.Fetch),
// hostile bytes fail both with an error and never a panic, every accepted
// blob is a slice of the file itself, and a JSON segment written by an
// older store is refused by both paths, naming the last commit that reads
// one.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
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

// legacyBytes renders blobs as a JSON segment, byte for byte as the JSON
// segment writer encoded it: {"hashes":[…],"blobs":[{"key":…,"data":…},…]},
// each blob's data inlined as the JSON value it held.
func legacyBytes(blobs []Blob) []byte {
	var hashes, bodies []string
	for _, b := range blobs {
		hashes = append(hashes, strconv.Quote(b.Key))
		bodies = append(bodies, `{"key":`+strconv.Quote(b.Key)+`,"data":`+string(b.Data)+`}`)
	}
	return []byte(`{"hashes":[` + strings.Join(hashes, ",") + `],"blobs":[` + strings.Join(bodies, ",") + `]}`)
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

// TestOpenRefusesLegacyJSONSegment: Open refuses a store directory holding
// a JSON segment, naming the file and the last commit that reads one, and
// leaves the directory as it was. A session over a store whose binary
// segment was replaced by a JSON one refuses it the same way.
func TestOpenRefusesLegacyJSONSegment(t *testing.T) {
	old := []Blob{blobOf("legacy-1"), blobOf("legacy-2")}
	for _, data := range [][]byte{legacyBytes(old), []byte("{}")} {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000001.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, nil)
		if !errors.Is(err, errLegacySegment) {
			t.Fatalf("Open over a JSON segment: %v", err)
		}
		for _, want := range []string{"seg-00000001.json", "legacy JSON segment", "3e24565"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Open error %q does not mention %q", err, want)
			}
		}
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || len(names) != 1 || !bytes.Equal(got, data) {
			t.Fatalf("refused Open changed the store directory: %d files, %v", len(names), err)
		}
	}

	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.json"), legacyBytes(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Session().Fetch([]string{old[0].Key}); !errors.Is(err, errLegacySegment) {
		t.Fatalf("Session.Fetch from a JSON segment: %v", err)
	}
}

// FuzzReadSegment feeds arbitrary bytes to both segment decoders. Neither
// may panic; a '{'-led file (a JSON segment) must be refused by both as
// one; any other file must be accepted by both or by neither, with the
// same keys; and every accepted blob must be the file's own bytes at its
// framed offset — never memory outside the file.
func FuzzReadSegment(f *testing.F) {
	two := []Blob{blobOf("alpha"), blobOf("beta")}
	valid := encodeBytes(f, two)
	f.Add(valid)
	f.Add(legacyBytes(two))
	for _, tc := range hostileSegments(valid) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blobs, err := decodeSegment(data)
		keys, ierr := decodeIndex(bytes.NewReader(data), int64(len(data)))
		if len(data) > 0 && data[0] == '{' {
			if !errors.Is(err, errLegacySegment) || !errors.Is(ierr, errLegacySegment) {
				t.Fatalf("JSON segment: body path err = %v, index path err = %v; want both refused", err, ierr)
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

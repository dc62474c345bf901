package core

// Contracts under test for the binary chunk codec: every blob kind round
// trips, hostile bytes (truncation, counts the input cannot hold, trailing
// bytes, unsorted keys, over-long varints) are refused with
// an error rather than a panic or an allocation, and a blob without its
// magic is refused too — as a legacy JSON chunk, naming the last commit
// that reads one, when it opens with '{'.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
)

func TestChunkCodecRoundTrip(t *testing.T) {
	kv := kvChunk{
		Set: map[string][]byte{"b": []byte(`{"x":1}`), "a": []byte(`"v"`), "": {}},
		Del: []string{"z", "c"},
	}
	got, err := decodeKVChunk(encodeKVChunk(kv))
	if err != nil {
		t.Fatal(err)
	}
	// Del comes back sorted; an empty value comes back as an empty slice.
	if want := (kvChunk{Set: map[string][]byte{"b": kv.Set["b"], "a": kv.Set["a"], "": {}}, Del: []string{"c", "z"}}); !reflect.DeepEqual(got, want) {
		t.Errorf("kv frame: got %+v, want %+v", got, want)
	}

	for _, a := range []*ecosys.Artifact{
		ecosys.NewArtifact(ecosys.Coord{Ecosystem: ecosys.NPM, Name: "n", Version: "1"}, "d", []ecosys.File{{Path: "b", Content: "x"}, {Path: "a", Content: ""}}),
		{Coord: ecosys.Coord{Ecosystem: -3}, Files: nil},
		{Coord: ecosys.Coord{Ecosystem: ecosys.PyPI}, Files: []ecosys.File{}},
	} {
		got, err := decodeArtifact(encodeArtifact(a))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("artifact: got %+v, want %+v", got, a)
		}
	}
}

// jsonChunk is how a decoder refuses a JSON chunk: naming it, and the last
// commit that reads one.
const jsonChunk = "a legacy JSON chunk; this build reads only binary chunks, and the last commit that reads JSON chunks is 3e24565"

// TestChunkCodecRejectsHostileBytes: every malformed blob is refused with
// an error naming what is wrong.
func TestChunkCodecRejectsHostileBytes(t *testing.T) {
	uv := func(prefix string, v uint64) string { return string(binary.AppendUvarint([]byte(prefix), v)) }
	art := string(encodeArtifact(&ecosys.Artifact{Coord: ecosys.Coord{Name: "n"}, Files: []ecosys.File{{Path: "p"}}}))
	kv := string(encodeKVChunk(kvChunk{Set: map[string][]byte{"a": []byte("1")}}))
	for _, tc := range []struct {
		name, data, want string
		decode           func([]byte) error
	}{
		{"kv oversized set count", uv(kvMagic, 1<<40), "exceeds", decodeKVErr},
		{"kv oversized value", kvMagic + "\x01\x01a" + uv("", 99), "exceeds", decodeKVErr},
		{"kv unsorted keys", kvMagic + "\x02\x01b\x00\x01a\x00\x00", "is not after", decodeKVErr},
		{"kv duplicate deletes", kvMagic + "\x00\x02\x01a\x01a", "is not after", decodeKVErr},
		{"kv truncated", kv[:len(kv)-1], "bad uvarint", decodeKVErr},
		{"kv trailing byte", kv + "\x00", "trailing", decodeKVErr},
		{"kv over-long varint", kvMagic + "\x80\x00\x00", "bad uvarint", decodeKVErr},
		{"artifact oversized files", uv(artifactMagic+"\x00\x00\x00\x00", 1<<35), "exceeds", decodeArtifactErr},
		{"artifact over-long varint", artifactMagic + "\x80\x00\x00\x00\x00\x00", "bad varint", decodeArtifactErr},
		{"artifact trailing byte", art + "x", "trailing", decodeArtifactErr},
		{"kv no magic", "kv1", "kv frame: missing magic", decodeKVErr},
		{"artifact no magic", "\x00ar2", "artifact: missing magic", decodeArtifactErr},
		// JSON chunks of each kind, as builds before the binary format wrote them.
		{"kv JSON", `{"set":{"a":1},"del":["b"]}`, "kv frame: " + jsonChunk, decodeKVErr},
		{"artifact JSON", `{"Coord":{"Ecosystem":1,"Name":"x","Version":"1"},"Files":null}`, "artifact: " + jsonChunk, decodeArtifactErr},
	} {
		err := tc.decode([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// Error-only views of the decoders, for the table above.
func decodeKVErr(b []byte) error       { _, err := decodeKVChunk(b); return err }
func decodeArtifactErr(b []byte) error { _, err := decodeArtifact(b); return err }

// FuzzDecodeChunk feeds arbitrary bytes to the two blob decoders (kv
// frame, artifact). None may panic, and a blob without its kind's magic
// must be refused. Otherwise a decode
// allocates in proportion to its input — a count larger than the bytes
// left is refused before any make — and an accepted blob re-encodes to
// exactly its bytes. Seeds in testdata/fuzz/FuzzDecodeChunk:
// one real chunk of each kind from a miniDataset checkpoint, plus
// truncated, oversized-count and trailing-byte variants. The graph-* and
// item* seeds are graph chunks and item values, the kinds a v7 checkpoint
// also wrote: an old store still holds them until compaction, and both
// decoders must refuse them.
func FuzzDecodeChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range []struct {
			name   string
			binary bool
			decode func() (reencode func() ([]byte, error), err error)
		}{
			{"kv frame", bytes.HasPrefix(data, []byte(kvMagic)), func() (func() ([]byte, error), error) {
				ch, err := decodeKVChunk(data)
				return func() ([]byte, error) { return encodeKVChunk(ch), nil }, err
			}},
			{"artifact", bytes.HasPrefix(data, []byte(artifactMagic)), func() (func() ([]byte, error), error) {
				a, err := decodeArtifact(data)
				return func() ([]byte, error) { return encodeArtifact(a), nil }, err
			}},
		} {
			if !d.binary {
				if _, err := d.decode(); err == nil {
					t.Fatalf("%s: accepted a blob without its magic: %.64q", d.name, data)
				}
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			reencode, err := d.decode()
			runtime.ReadMemStats(&after)
			// The densest inputs (a kv entry or an artifact file in 2
			// bytes) cost well under 100 bytes of heap per input byte.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, 256*uint64(len(data))+64<<10; grew > limit {
				t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", d.name, len(data), grew, limit)
			}
			if err != nil {
				continue
			}
			got, err := reencode()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: accepted %d-byte blob re-encodes to %d other bytes (%v): %.64q", d.name, len(data), len(got), err, data)
			}
		}
	})
}

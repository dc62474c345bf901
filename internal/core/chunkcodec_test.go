package core

// Contracts under test for the binary chunk codec: every blob kind round
// trips, hostile bytes (truncation, counts the input cannot hold, trailing
// bytes, unsorted keys, over-long varints, unknown kinds) are refused with
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
	"malgraph/internal/graph"
	"malgraph/internal/textsim"
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

	gc := graphChunk{Ops: []graph.Op{
		{Kind: "node", ID: "n1", Attrs: graph.Attrs{"k": "v", "a": ""}},
		{Kind: "node", ID: "n2"},
		{Kind: "attr", ID: "n1", Key: "k", Value: "w"},
		{Kind: "edge", From: "n1", To: "n2", Type: graph.Coexisting, Attrs: graph.Attrs{"report": "r"}},
		{Kind: "deledge", From: "n1", To: "n2", Type: graph.Coexisting},
	}}
	raw, err := encodeGraphChunk(gc)
	if err != nil {
		t.Fatal(err)
	}
	gotGC, err := decodeGraphChunk(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotGC, gc) {
		t.Errorf("graph ops: got %+v, want %+v", gotGC, gc)
	}
	if _, err := encodeGraphChunk(graphChunk{Ops: []graph.Op{{Kind: "bogus"}}}); err == nil {
		t.Error("encodeGraphChunk accepted an unknown op")
	}

	for _, it := range []textsim.Item{
		{ID: "PyPI/x@1", Vector: []float64{0.5, -1, 1e-300}, Hash: 1<<64 - 1},
		{ID: "e", Vector: []float64{}, Hash: 0},
		{ID: "nil", Vector: nil, Hash: 7},
	} {
		got, err := decodeItem(encodeItem(it))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, it) {
			t.Errorf("item: got %+v, want %+v", got, it)
		}
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
	item := string(encodeItem(textsim.Item{ID: "x", Vector: []float64{1}, Hash: 2}))
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
		{"graph oversized nodes", uv(graphMagic+"\x01", 1<<33), "exceeds", decodeGraphErr},
		{"graph oversized ops", uv(graphMagic+"\x00", 1<<20), "exceeds", decodeGraphErr},
		{"graph bad flag", graphMagic + "\x02\x00", "reset flag", decodeGraphErr},
		{"graph unknown op", graphMagic + "\x00\x01\x09\x00\x00", "unknown op kind", decodeGraphErr},
		{"graph bad edge type", graphMagic + "\x00\x01\x04\x01a\x01b\x07", "edge type 7", decodeGraphErr},
		{"graph unsorted attrs", graphMagic + "\x00\x01\x01\x01n\x02\x01b\x00\x01a\x00", "is not after", decodeGraphErr},
		{"graph truncated", graphMagic, "truncated", decodeGraphErr},
		{"item oversized dim", uv(string(itemTag)+"\x01x", 1<<50), "exceeds", decodeItemErr},
		{"item truncated", item[:len(item)-1], "truncated", decodeItemErr},
		{"item trailing byte", item + "\x00", "trailing", decodeItemErr},
		{"artifact oversized files", uv(artifactMagic+"\x00\x00\x00\x00", 1<<35), "exceeds", decodeArtifactErr},
		{"artifact over-long varint", artifactMagic + "\x80\x00\x00\x00\x00\x00", "bad varint", decodeArtifactErr},
		{"artifact trailing byte", art + "x", "trailing", decodeArtifactErr},
		{"kv no magic", "kv1", "kv frame: missing magic", decodeKVErr},
		{"graph empty", "", "graph chunk: missing magic", decodeGraphErr},
		{"item bad tag", "\x02\x01x", "item: missing magic", decodeItemErr},
		{"artifact no magic", "\x00ar2", "artifact: missing magic", decodeArtifactErr},
		// JSON chunks of each kind, as builds before the binary format wrote them.
		{"kv JSON", `{"set":{"a":1},"del":["b"]}`, "kv frame: " + jsonChunk, decodeKVErr},
		{"graph JSON re-base", `{"reset":{"nodes":null,"edges":[]}}`, "graph chunk: " + jsonChunk, decodeGraphErr},
		{"graph JSON ops", `{"ops":[{"kind":"node","id":"n"}]}`, "graph chunk: " + jsonChunk, decodeGraphErr},
		{"item JSON", `{"id":"x","vector":[1],"hash":"2"}`, "item: " + jsonChunk, decodeItemErr},
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
func decodeGraphErr(b []byte) error    { _, err := decodeGraphChunk(b); return err }
func decodeItemErr(b []byte) error     { _, err := decodeItem(b); return err }
func decodeArtifactErr(b []byte) error { _, err := decodeArtifact(b); return err }

// FuzzDecodeChunk feeds arbitrary bytes to the four blob decoders (kv
// frame, graph chunk, item value, artifact). None may panic, and a blob
// without its kind's magic (or tag) must be refused. Otherwise a decode
// allocates in proportion to its input — a count larger than the bytes
// left is refused before any make — and an accepted blob re-encodes to
// exactly its bytes. Seeds in testdata/fuzz/FuzzDecodeChunk:
// one real chunk of each kind from a miniDataset checkpoint, plus
// truncated, oversized-count and trailing-byte variants.
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
			{"graph chunk", bytes.HasPrefix(data, []byte(graphMagic)), func() (func() ([]byte, error), error) {
				gc, err := decodeGraphChunk(data)
				return func() ([]byte, error) { return encodeGraphChunk(gc) }, err
			}},
			{"item", len(data) > 0 && data[0] == itemTag, func() (func() ([]byte, error), error) {
				it, err := decodeItem(data)
				return func() ([]byte, error) { return encodeItem(it), nil }, err
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
			// The densest input (a one-attribute node op in 5 bytes) costs
			// under 100 bytes of heap per input byte.
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

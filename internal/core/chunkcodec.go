package core

// Binary store chunks: the encoding Snapshot writes for its two blob kinds,
// so a restore decodes them by slicing instead of through encoding/json.
// Strings are a uvarint length plus the bytes; a "nilable" count is written
// plus one, so zero marks a nil slice and the decoded state equals the
// encoded one exactly.
//
//	kv frame      kvMagic | nSet | nSet×(key, value) | nDel | nDel×key
//	artifact      artifactMagic | ecosystem (varint) | name | version | description | nilable files (path, content)
//
// Keys are strictly increasing, so equal state encodes to equal bytes (and
// the same content key), and a decoder accepts exactly the bytes its
// encoder writes. A blob without the magic is refused; one that opens with '{' is a JSON chunk from before the binary
// format, and the error says so. The decoders bound every count by the
// bytes that remain before allocating, check every length, reject trailing
// bytes and never panic: castore verifies each blob's SHA-256, but a store
// directory is still input.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"malgraph/internal/ecosys"
)

// The magics start with NUL, which cannot begin a JSON document: a build
// that predates the binary format fails on these chunks with a decode
// error naming the chunk instead of restoring from them.
const (
	kvMagic       = "\x00kv1"
	artifactMagic = "\x00ar1"
)

// lastLegacyReader is the last commit that reads the encodings a restore
// now refuses: monolithic v3/v4 snapshots and JSON chunks.
const lastLegacyReader = "3e24565"

// errNoMagic refuses a blob of the given kind that lacks its magic.
func errNoMagic(kind string, data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		return fmt.Errorf("%s: a legacy JSON chunk; this build reads only binary chunks, and the last commit that reads JSON chunks is %s",
			kind, lastLegacyReader)
	}
	return fmt.Errorf("%s: missing magic", kind)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendNilable writes a slice length plus one, zero for a nil slice.
func appendNilable(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// encodeKVChunk renders a keyed-section delta as a kv frame, keys sorted.
// Set and Del must be disjoint (the engine's dirty tracking makes them so).
func encodeKVChunk(ch kvChunk) []byte {
	keys := make([]string, 0, len(ch.Set))
	size := len(kvMagic) + 2*binary.MaxVarintLen64
	for k, v := range ch.Set {
		keys = append(keys, k)
		size += len(k) + len(v) + 2*binary.MaxVarintLen32
	}
	sort.Strings(keys)
	del := append([]string(nil), ch.Del...)
	sort.Strings(del)
	for _, k := range del {
		size += len(k) + binary.MaxVarintLen32
	}
	b := make([]byte, 0, size)
	b = append(b, kvMagic...)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, uint64(len(ch.Set[k])))
		b = append(b, ch.Set[k]...)
	}
	b = binary.AppendUvarint(b, uint64(len(del)))
	for _, k := range del {
		b = appendString(b, k)
	}
	return b
}

// encodeArtifact renders an artifact blob; files keep their order, which
// the artifact's hash covers.
func encodeArtifact(a *ecosys.Artifact) []byte {
	size := len(artifactMagic) + 5*binary.MaxVarintLen32 + len(a.Coord.Name) + len(a.Coord.Version) + len(a.Description)
	for _, f := range a.Files {
		size += len(f.Path) + len(f.Content) + 2*binary.MaxVarintLen32
	}
	b := make([]byte, 0, size)
	b = append(b, artifactMagic...)
	b = binary.AppendVarint(b, int64(a.Coord.Ecosystem))
	b = appendString(b, a.Coord.Name)
	b = appendString(b, a.Coord.Version)
	b = appendString(b, a.Description)
	b = appendNilable(b, len(a.Files), a.Files == nil)
	for _, f := range a.Files {
		b = appendString(b, f.Path)
		b = appendString(b, f.Content)
	}
	return b
}

// chunkReader decodes one binary blob. The first error sticks: later reads
// return zero values, and done reports it.
type chunkReader struct {
	buf []byte
	off int
	err error
}

func (r *chunkReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *chunkReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	// A zero last byte is an over-long encoding the encoder never writes.
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *chunkReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	// A zero last byte is an over-long encoding the encoder never writes.
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// bound checks a decoded count against the input left: each element takes
// at least minSize bytes, so a count the remaining bytes cannot hold is
// refused before anything is allocated for it.
func (r *chunkReader) bound(v uint64, minSize int) int {
	if r.err != nil {
		return 0
	}
	if left := uint64(len(r.buf) - r.off); v > left/uint64(minSize) {
		r.fail("count %d at byte %d exceeds the %d bytes left", v, r.off, left)
		return 0
	}
	return int(v)
}

// count reads an element count; see bound.
func (r *chunkReader) count(minSize int) int { return r.bound(r.uvarint(), minSize) }

// nilable reads a count written by appendNilable.
func (r *chunkReader) nilable(minSize int) (n int, isNil bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, true
	}
	return r.bound(v-1, minSize), false
}

// raw reads a length-prefixed field as a capacity-capped sub-slice of
// the input: nothing is copied, and an append cannot reach the next field.
func (r *chunkReader) raw() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *chunkReader) str() string { return string(r.raw()) }

// after returns s, failing unless it sorts strictly after prev (or is
// the first of its list).
func (r *chunkReader) after(s, prev string, first bool, what string) string {
	if r.err == nil && !first && s <= prev {
		r.fail("%s %q at byte %d is not after %q", what, s, r.off, prev)
	}
	return s
}

// done reports the first error, or trailing bytes after a complete blob.
func (r *chunkReader) done(kind string) error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", kind, r.err)
	}
	return nil
}

// decodeKVChunk decodes a kv frame; the values are capped sub-slices of
// data.
func decodeKVChunk(data []byte) (kvChunk, error) {
	if !bytes.HasPrefix(data, []byte(kvMagic)) {
		return kvChunk{}, errNoMagic("kv frame", data)
	}
	r := &chunkReader{buf: data, off: len(kvMagic)}
	var ch kvChunk
	if n := r.count(2); n > 0 {
		ch.Set = make(map[string][]byte, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			k := r.after(r.str(), prev, i == 0, "key")
			ch.Set[k] = r.raw()
			prev = k
		}
	}
	if n := r.count(1); n > 0 {
		ch.Del = make([]string, n)
		prev := ""
		for i := range ch.Del {
			ch.Del[i] = r.after(r.str(), prev, i == 0, "deleted key")
			prev = ch.Del[i]
		}
	}
	return ch, r.done("kv frame")
}

// decodeArtifact decodes an artifact blob.
func decodeArtifact(data []byte) (*ecosys.Artifact, error) {
	if !bytes.HasPrefix(data, []byte(artifactMagic)) {
		return nil, errNoMagic("artifact", data)
	}
	r := &chunkReader{buf: data, off: len(artifactMagic)}
	a := &ecosys.Artifact{
		Coord:       ecosys.Coord{Ecosystem: ecosys.Ecosystem(r.varint()), Name: r.str(), Version: r.str()},
		Description: r.str(),
	}
	if n, isNil := r.nilable(2); !isNil {
		a.Files = make([]ecosys.File, n)
		for i := range a.Files {
			a.Files[i] = ecosys.File{Path: r.str(), Content: r.str()}
		}
	}
	if err := r.done("artifact"); err != nil {
		return nil, err
	}
	return a, nil
}

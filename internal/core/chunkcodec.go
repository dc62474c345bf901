package core

// Binary store chunks: the encoding Snapshot writes for its four heavy blob
// kinds, so a restore decodes them by slicing instead of through
// encoding/json. Strings are a uvarint length plus the bytes; floats and
// SimHash fingerprints are 64-bit little-endian; a "nilable" count is
// written plus one, so zero marks a nil slice and the decoded state equals
// the encoded one exactly.
//
//	kv frame      kvMagic | nSet | nSet×(key, value) | nDel | nDel×key
//	graph chunk   graphMagic | reset flag | [nodes (id, attrs) | edges (from, to, type, attrs)] | ops
//	item value    itemTag | id | nilable dim | dim×float64 | SimHash
//	artifact      artifactMagic | ecosystem (varint) | name | version | description | nilable files (path, content)
//
// Keys and attribute names are strictly increasing, so equal state encodes
// to equal bytes (and the same content key), and a decoder accepts exactly
// the bytes its encoder writes. A blob without the magic (or tag) is
// refused; one that opens with '{' is a JSON chunk from before the binary
// format, and the error says so. The decoders bound every count by the
// bytes that remain before allocating, check every length, reject trailing
// bytes and never panic: castore verifies each blob's SHA-256, but a store
// directory is still input.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/textsim"
)

// The magics start with NUL, which cannot begin a JSON document: a build
// that predates the binary format fails on these chunks with a decode
// error naming the chunk instead of restoring from them.
const (
	kvMagic       = "\x00kv1"
	graphMagic    = "\x00gr1"
	artifactMagic = "\x00ar1"
	// itemTag opens an item value; a JSON item opens with '{'.
	itemTag byte = 1
)

// lastLegacyReader is the last commit that reads the encodings a restore
// now refuses: monolithic v3/v4 snapshots and JSON chunks.
const lastLegacyReader = "3e24565"

// errNoMagic refuses a blob of the given kind that lacks its magic or tag.
func errNoMagic(kind string, data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		return fmt.Errorf("%s: a legacy JSON chunk; this build reads only binary chunks, and the last commit that reads JSON chunks is %s",
			kind, lastLegacyReader)
	}
	return fmt.Errorf("%s: missing magic", kind)
}

// Graph op kinds on the wire.
const (
	opNode byte = iota + 1
	opAttr
	opEdge
	opDelEdge
)

var opKinds = map[string]byte{"node": opNode, "attr": opAttr, "edge": opEdge, "deledge": opDelEdge}

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

func appendAttrs(b []byte, a graph.Attrs) []byte {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, a[k])
	}
	return b
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

// encodeGraphChunk renders one step of the graph log.
func encodeGraphChunk(gc graphChunk) ([]byte, error) {
	b := append([]byte(nil), graphMagic...)
	if gc.Reset == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(gc.Reset.Nodes)))
		for _, n := range gc.Reset.Nodes {
			b = appendString(b, n.ID)
			b = appendAttrs(b, n.Attrs)
		}
		b = binary.AppendUvarint(b, uint64(len(gc.Reset.Edges)))
		for _, e := range gc.Reset.Edges {
			b = appendString(b, e.From)
			b = appendString(b, e.To)
			b = binary.AppendUvarint(b, uint64(e.Type))
			b = appendAttrs(b, e.Attrs)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(gc.Ops)))
	for _, op := range gc.Ops {
		kind, ok := opKinds[op.Kind]
		if !ok {
			return nil, fmt.Errorf("graph chunk: unknown op %q", op.Kind)
		}
		b = append(b, kind)
		switch kind {
		case opNode:
			b = appendString(b, op.ID)
			b = appendAttrs(b, op.Attrs)
		case opAttr:
			b = appendString(b, op.ID)
			b = appendString(b, op.Key)
			b = appendString(b, op.Value)
		case opEdge, opDelEdge:
			b = appendString(b, op.From)
			b = appendString(b, op.To)
			b = binary.AppendUvarint(b, uint64(op.Type))
			if kind == opEdge {
				b = appendAttrs(b, op.Attrs)
			}
		}
	}
	return b, nil
}

// encodeItem renders one clustering item as an item value.
func encodeItem(it textsim.Item) []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen32+len(it.ID)+binary.MaxVarintLen32+8*len(it.Vector)+8)
	b = append(b, itemTag)
	b = appendString(b, it.ID)
	b = appendNilable(b, len(it.Vector), it.Vector == nil)
	for _, f := range it.Vector {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return binary.LittleEndian.AppendUint64(b, it.Hash)
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
	// names interns node IDs and attribute names within a graph chunk:
	// every edge names two nodes and every node repeats the same few
	// attribute names, so they share one allocation each.
	names map[string]string
}

func (r *chunkReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *chunkReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	c := r.buf[r.off]
	r.off++
	return c
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

func (r *chunkReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
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

// name reads a string through the intern table.
func (r *chunkReader) name() string {
	b := r.raw()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	r.names[s] = s
	return s
}

// after returns s, failing unless it sorts strictly after prev (or is
// the first of its list).
func (r *chunkReader) after(s, prev string, first bool, what string) string {
	if r.err == nil && !first && s <= prev {
		r.fail("%s %q at byte %d is not after %q", what, s, r.off, prev)
	}
	return s
}

func (r *chunkReader) attrs() graph.Attrs {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	a := make(graph.Attrs, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.after(r.name(), prev, i == 0, "attribute")
		a[k] = r.str()
		prev = k
	}
	return a
}

func (r *chunkReader) edgeType() graph.EdgeType {
	v := r.uvarint()
	if r.err == nil && (v < uint64(graph.Duplicated) || v > uint64(graph.Coexisting)) {
		r.fail("edge type %d at byte %d", v, r.off)
	}
	return graph.EdgeType(v)
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

// decodeGraphChunk decodes a graph chunk.
func decodeGraphChunk(data []byte) (graphChunk, error) {
	if !bytes.HasPrefix(data, []byte(graphMagic)) {
		return graphChunk{}, errNoMagic("graph chunk", data)
	}
	r := &chunkReader{buf: data, off: len(graphMagic), names: make(map[string]string)}
	var gc graphChunk
	switch flag := r.u8(); {
	case r.err != nil:
	case flag == 1:
		p := &graph.Persisted{}
		// A node takes at least 2 bytes (empty ID, no attrs), an edge 4.
		if n := r.count(2); n > 0 {
			p.Nodes = make([]graph.Node, n)
			for i := range p.Nodes {
				p.Nodes[i] = graph.Node{ID: r.name(), Attrs: r.attrs()}
			}
		}
		p.Edges = make([]graph.Edge, r.count(4))
		for i := range p.Edges {
			p.Edges[i] = graph.Edge{From: r.name(), To: r.name(), Type: r.edgeType(), Attrs: r.attrs()}
		}
		gc.Reset = p
	case flag != 0:
		r.fail("reset flag %d", flag)
	}
	// An op takes at least 3 bytes (kind, empty ID, no attrs).
	if n := r.count(3); n > 0 {
		gc.Ops = make([]graph.Op, n)
		for i := range gc.Ops {
			op := &gc.Ops[i]
			switch kind := r.u8(); {
			case r.err != nil:
			case kind == opNode:
				op.Kind, op.ID, op.Attrs = "node", r.name(), r.attrs()
			case kind == opAttr:
				op.Kind, op.ID, op.Key, op.Value = "attr", r.name(), r.name(), r.str()
			case kind == opEdge:
				op.Kind, op.From, op.To, op.Type, op.Attrs = "edge", r.name(), r.name(), r.edgeType(), r.attrs()
			case kind == opDelEdge:
				op.Kind, op.From, op.To, op.Type = "deledge", r.name(), r.name(), r.edgeType()
			default:
				r.fail("unknown op kind %d at byte %d", kind, r.off-1)
			}
		}
	}
	return gc, r.done("graph chunk")
}

// decodeItem decodes a clustering item value.
func decodeItem(data []byte) (textsim.Item, error) {
	if len(data) == 0 || data[0] != itemTag {
		return textsim.Item{}, errNoMagic("item", data)
	}
	r := &chunkReader{buf: data, off: 1}
	it := textsim.Item{ID: r.str()}
	if dim, isNil := r.nilable(8); !isNil {
		it.Vector = make([]float64, dim)
		for i := range it.Vector {
			it.Vector[i] = math.Float64frombits(r.u64())
		}
	}
	it.Hash = r.u64()
	return it, r.done("item")
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

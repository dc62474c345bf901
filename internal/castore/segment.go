package castore

// Segment file format. A binary segment is
//
//	magic (8 bytes) | u32 count | count × (32-byte raw SHA-256 key | u32 length) | blob bodies
//
// with little-endian integers and the bodies concatenated in index order,
// ending exactly at EOF. The index is a fixed-width prefix, so Open reads
// the header and index of each file and never its bodies, and a session
// reads a whole file with one sized read and hands its blobs out as
// sub-slices of that buffer — no per-blob decode or copy.
//
// This is the only layout read. A JSON segment from before the binary
// frame (a file whose first byte is '{') is refused with errLegacySegment.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	segMagic   = "MGCAS\x00\x01\n"
	headerSize = len(segMagic) + 4 // magic | u32 count
	entrySize  = sha256.Size + 4   // raw key | u32 length
)

// errLegacySegment refuses a JSON segment, the layout before the binary
// frame.
var errLegacySegment = errors.New("a legacy JSON segment: this build reads only binary segments; the last commit that reads JSON segments is 3e24565")

// encodeSegment streams blobs to w as one binary segment. Keys must be
// hex SHA-256 digests (Append has verified them against the bodies).
func encodeSegment(w io.Writer, blobs []Blob) error {
	if uint64(len(blobs)) > math.MaxUint32 {
		return fmt.Errorf("%d blobs overflow the segment index", len(blobs))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[len(segMagic):], uint32(len(blobs)))
	bw.Write(hdr[:])
	var ent [entrySize]byte
	for _, b := range blobs {
		if len(b.Key) != 2*sha256.Size {
			return fmt.Errorf("malformed blob key %q", b.Key)
		}
		if _, err := hex.Decode(ent[:sha256.Size], []byte(b.Key)); err != nil {
			return fmt.Errorf("malformed blob key %q: %w", b.Key, err)
		}
		if uint64(len(b.Data)) > math.MaxUint32 {
			return fmt.Errorf("blob %s: %d bytes overflow the segment index", b.Key, len(b.Data))
		}
		binary.LittleEndian.PutUint32(ent[sha256.Size:], uint32(len(b.Data)))
		bw.Write(ent[:])
	}
	for _, b := range blobs {
		bw.Write(b.Data)
	}
	// bufio.Writer errors are sticky: the first failed write surfaces here.
	return bw.Flush()
}

// parseHeader checks a binary segment header and bounds its blob count by
// the size of the file: every index entry must fit before EOF. A header
// that opens with '{' is a JSON segment.
func parseHeader(head []byte, size int64) (int, error) {
	if len(head) > 0 && head[0] == '{' {
		return 0, errLegacySegment
	}
	if len(head) < headerSize {
		return 0, fmt.Errorf("truncated segment header: %d bytes", len(head))
	}
	if string(head[:len(segMagic)]) != segMagic {
		return 0, errors.New("not a segment: bad magic")
	}
	count := int64(binary.LittleEndian.Uint32(head[len(segMagic):]))
	if count > (size-int64(headerSize))/entrySize {
		return 0, fmt.Errorf("segment index of %d blobs overruns the %d-byte file", count, size)
	}
	return int(count), nil
}

// segEntry is one binary index record.
type segEntry struct {
	key [sha256.Size]byte
	len int64
}

// parseIndex decodes the index records in idx and checks that the bodies
// they describe end exactly at EOF of a size-byte file.
func parseIndex(idx []byte, size int64) ([]segEntry, error) {
	entries := make([]segEntry, len(idx)/entrySize)
	end := int64(headerSize + len(idx))
	for i := range entries {
		rec := idx[i*entrySize : (i+1)*entrySize]
		copy(entries[i].key[:], rec)
		entries[i].len = int64(binary.LittleEndian.Uint32(rec[sha256.Size:]))
		end += entries[i].len
		if end > size {
			return nil, fmt.Errorf("segment blob %d runs past EOF", i)
		}
	}
	if end != size {
		return nil, fmt.Errorf("segment has %d trailing bytes after the last blob", size-end)
	}
	return entries, nil
}

// decodeIndex reads the blob keys of a segment file of size bytes from r,
// reading only the header and index of a binary segment.
func decodeIndex(r io.Reader, size int64) ([]string, error) {
	head := make([]byte, headerSize)
	n, err := io.ReadFull(r, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	// parseHeader refuses a short header, naming a JSON segment as one.
	count, err := parseHeader(head[:n], size)
	if err != nil {
		return nil, err
	}
	idx := make([]byte, count*entrySize)
	if _, err := io.ReadFull(r, idx); err != nil {
		return nil, fmt.Errorf("segment index: %w", err)
	}
	entries, err := parseIndex(idx, size)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(entries))
	for i := range entries {
		keys[i] = hex.EncodeToString(entries[i].key[:])
	}
	return keys, nil
}

// decodeSegment decodes a whole segment file held in data. The Data of a
// binary segment's blobs are sub-slices of data, capped so an append
// cannot spill into a neighbour.
func decodeSegment(data []byte) ([]Blob, error) {
	count, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	off := headerSize + count*entrySize
	entries, err := parseIndex(data[headerSize:off], int64(len(data)))
	if err != nil {
		return nil, err
	}
	blobs := make([]Blob, len(entries))
	for i := range entries {
		end := off + int(entries[i].len)
		blobs[i] = Blob{Key: hex.EncodeToString(entries[i].key[:]), Data: data[off:end:end]}
		off = end
	}
	return blobs, nil
}

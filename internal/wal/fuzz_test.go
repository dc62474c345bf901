package wal

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzScan feeds arbitrary journal bytes to Open's recovery scan. scan must
// never panic, must stop inside the input, and the prefix it keeps must be
// a run of records with strictly increasing sequences that re-encode to
// exactly those bytes: recovery truncates to that prefix, so anything it
// keeps is what replay will apply. Decoding allocates at most a small
// multiple of the input, whatever a length prefix claims. Seeds in
// testdata/fuzz/FuzzScan: a real three-record journal, a torn tail, a bad
// CRC, a body length below 10 and above maxRecord, a kind length past the
// body and a repeated sequence.
func FuzzScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lastSeq, valid := scan(raw)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(raw))+64<<10; grew > limit {
			t.Fatalf("scanning %d bytes allocated %d (limit %d)", len(raw), grew, limit)
		}
		if valid < 0 || valid > int64(len(raw)) {
			t.Fatalf("valid prefix %d outside the %d-byte input", valid, len(raw))
		}
		var again []byte
		prev := uint64(0)
		for off := int64(0); off < valid; {
			rec, n, ok := decodeRecord(raw[off:valid], prev)
			if !ok {
				t.Fatalf("record at offset %d of the %d-byte valid prefix does not decode", off, valid)
			}
			if rec.Seq <= prev {
				t.Fatalf("record at offset %d: seq %d after %d", off, rec.Seq, prev)
			}
			again = append(again, encodeRecord(rec.Seq, rec.Kind, rec.Payload)...)
			prev, off = rec.Seq, off+n
		}
		if prev != lastSeq {
			t.Fatalf("scan reports last seq %d, the valid prefix ends at %d", lastSeq, prev)
		}
		if !bytes.Equal(again, raw[:valid]) {
			t.Fatalf("valid prefix of %d bytes re-encodes to %d other bytes", valid, len(again))
		}
	})
}

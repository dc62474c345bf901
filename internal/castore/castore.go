// Package castore is a content-addressed blob store persisted as immutable
// append-only segment files. A blob is an opaque JSON value — an artifact's
// serialised content, a manifest section chunk — keyed by the SHA-256 of
// its bytes (KeyOf), so a blob's key commits to its content: duplicate
// writes dedupe for free, and every read re-verifies the bytes against the
// key.
//
// On-disk layout is one directory of segment files, seg-00000001.json
// upward. The .json suffix is historical: a segment is a binary frame —
// magic, blob count, a fixed-width index of (raw SHA-256 key, length)
// pairs, then the bodies back to back (segment.go) — and only segments
// written by older versions are JSON: still read, never written, and
// rewritten into the binary layout by the next Compact. A segment is
// written once — temp file, fsync, rename, directory fsync, the same crash
// discipline as the serve checkpoint's writeFileAtomic — and never
// modified afterwards. A crash mid-write
// leaves only a .castore-* temp file, which Open deletes; a crash
// mid-compaction leaves either the old segments, or the merged segment
// plus some not-yet-unlinked old ones, and because blobs are
// content-addressed the duplicates are harmless: Open keeps the first
// segment that mentions a hash and ignores re-mentions.
//
// Each segment leads with its hash index ahead of the blob bodies, so
// Open recovers the full hash→segment index by reading only the index
// prefix of each file — opening a large store does not read artifact
// bodies.
package castore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"malgraph/internal/parallel"
	"malgraph/internal/wal"
)

// KeyOf returns the content key of a blob: the SHA-256 of its bytes, hex
// encoded. Every blob in the store is addressed — and verified — by it.
func KeyOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Blob pairs a content key with its bytes. Key must equal KeyOf(Data);
// Append rejects mismatches rather than store an unverifiable blob.
type Blob struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// segment file names are seg-%08d.json (the suffix predates the binary
// layout); temp files carry the tempPrefix and are garbage from an
// interrupted write, removed at Open.
const (
	segPattern = "seg-%08d.json"
	tempPrefix = ".castore-"
)

// ParseSegmentName returns the id of a segment file name. It accepts only
// the exact canonical spelling, so a stray copy such as
// seg-00000001.json.bak or seg-1.json is never mistaken for segment 1.
func ParseSegmentName(name string) (id int, ok bool) {
	if n, err := fmt.Sscanf(name, segPattern, &id); n != 1 || err != nil {
		return 0, false
	}
	return id, id > 0 && fmt.Sprintf(segPattern, id) == name
}

// Store is a content-addressed artifact store over one directory of
// immutable segment files. All exported methods are safe for concurrent
// use.
type Store struct {
	fs  wal.FS
	dir string

	mu sync.Mutex
	// known maps blob hash → segment id, guarded by mu.
	known map[string]int
	// segs lists live segment ids in ascending order, guarded by mu.
	segs []int
	// nextSeg is the id the next written segment takes, guarded by mu.
	// Strictly greater than every id ever used, including unlinked ones,
	// so a lingering pre-crash segment can never collide with a new write.
	nextSeg int
	// compacting serializes compaction runs, guarded by mu.
	compacting bool
}

// Open creates dir if needed, removes interrupted-write temp files, and
// indexes every segment by reading only its hash-index prefix. A nil fs
// uses the real filesystem.
func Open(dir string, fs wal.FS) (*Store, error) {
	if fs == nil {
		fs = wal.OSFS()
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	st := &Store{
		fs:      fs,
		dir:     dir,
		known:   make(map[string]int),
		nextSeg: 1,
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, tempPrefix) {
			// Leftover from a write interrupted before rename — never
			// referenced, safe to drop.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		id, ok := ParseSegmentName(name)
		if !ok {
			continue
		}
		hashes, err := readIndex(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("castore: segment %s: %w", name, err)
		}
		st.segs = append(st.segs, id)
		for _, h := range hashes {
			// First mention wins: after an interrupted compaction the same
			// blob can appear in the merged segment and in an old one, and
			// either copy is byte-identical by construction.
			if _, ok := st.known[h]; !ok {
				st.known[h] = id
			}
		}
		if id >= st.nextSeg {
			st.nextSeg = id + 1
		}
	}
	sort.Ints(st.segs)
	return st, nil
}

// readIndex reads the blob keys of a segment file from its index prefix.
func readIndex(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return decodeIndex(f, info.Size())
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Len returns the number of distinct blobs indexed.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.known)
}

// SegmentCount returns the number of live segment files.
func (st *Store) SegmentCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.segs)
}

// Has reports whether the blob with the given hash is stored.
func (st *Store) Has(hash string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.known[hash]
	return ok
}

// Missing returns, preserving order, the subset of hashes not yet stored.
func (st *Store) Missing(hashes []string) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	seen := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if _, ok := st.known[h]; !ok {
			out = append(out, h)
		}
	}
	return out
}

// Append durably stores every blob not already present as one new
// segment, and returns the number of blobs written. Blobs whose key is
// already indexed are skipped (content-addressing makes the stored copy
// equivalent). An all-duplicates or empty batch writes nothing. The
// segment is crash-safe: temp → write → fsync → rename → directory fsync,
// so after Append returns the blobs survive power loss, and a crash
// before the rename leaves no trace beyond a temp file Open removes.
func (st *Store) Append(blobs []Blob) (int, error) {
	for _, b := range blobs {
		if got := KeyOf(b.Data); got != b.Key {
			return 0, fmt.Errorf("castore: blob key %s does not match content key %s", b.Key, got)
		}
	}
	st.mu.Lock()
	var seg []Blob
	inSeg := make(map[string]bool, len(blobs))
	for _, b := range blobs {
		h := b.Key
		if _, ok := st.known[h]; ok {
			continue
		}
		if inSeg[h] {
			continue
		}
		inSeg[h] = true
		seg = append(seg, b)
	}
	if len(seg) == 0 {
		st.mu.Unlock()
		return 0, nil
	}
	id := st.nextSeg
	st.nextSeg++
	st.mu.Unlock()

	if err := st.writeSegment(id, seg); err != nil {
		return 0, err
	}

	st.mu.Lock()
	st.segs = append(st.segs, id)
	sort.Ints(st.segs)
	for _, b := range seg {
		if _, ok := st.known[b.Key]; !ok {
			st.known[b.Key] = id
		}
	}
	st.mu.Unlock()
	return len(seg), nil
}

// writeSegment writes one binary segment file with full crash discipline.
func (st *Store) writeSegment(id int, blobs []Blob) (err error) {
	name := fmt.Sprintf(segPattern, id)
	tmp := filepath.Join(st.dir, tempPrefix+name)
	final := filepath.Join(st.dir, name)
	f, err := st.fs.OpenFile(tmp)
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = encodeSegment(f, blobs); err != nil {
		return fmt.Errorf("castore: encode segment: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("castore: sync segment: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("castore: close segment: %w", err)
	}
	if err = os.Rename(tmp, final); err != nil {
		return fmt.Errorf("castore: publish segment: %w", err)
	}
	if err = st.fs.SyncDir(st.dir); err != nil {
		return fmt.Errorf("castore: sync dir: %w", err)
	}
	return nil
}

// Fetch resolves content keys to blob bytes, reading only the segments
// that contain at least one requested blob. Every returned blob is
// re-verified against its key. Unknown keys are an error. It is a
// Session of one call: a burst of related fetches should share a Session
// so each segment decodes once.
func (st *Store) Fetch(hashes []string) (map[string]json.RawMessage, error) {
	return st.Session().Fetch(hashes)
}

// Session is a read session over the store. Its Fetch decodes each segment
// at most once for the session's lifetime and serves later requests for
// blobs of a decoded segment from memory, even after a compaction unlinked
// the file. A session pins every segment it decoded, so it is meant for
// one burst of related reads (a restore, one compaction's ref collection)
// and then dropped. A Session is not safe for concurrent use.
type Session struct {
	st      *Store
	decoded map[int]bool
	blobs   map[string]sessionBlob
}

// sessionBlob is a decoded, not yet verified blob and the segment it came
// from (named in verification errors).
type sessionBlob struct {
	seg  int
	data json.RawMessage
}

// Session starts a read session over the store.
func (st *Store) Session() *Session {
	return &Session{st: st, decoded: make(map[int]bool), blobs: make(map[string]sessionBlob)}
}

// Fetch resolves content keys to blob bytes. Blobs of segments the session
// already decoded come from memory; the other segments the request needs
// are read and decoded in parallel. Every returned blob is re-verified
// against its key. Unknown keys are an error.
func (s *Session) Fetch(hashes []string) (map[string]json.RawMessage, error) {
	// A concurrent compaction can unlink a segment between the index
	// lookup and the file open; the blobs then live in the merged segment
	// the updated index points at, so re-resolve and retry. Two rounds
	// always suffice — only one compaction runs at a time, and the merged
	// segment is published before the old ones are unlinked.
	for attempt := 0; ; attempt++ {
		ids, err := s.undecoded(hashes)
		if err != nil {
			return nil, err
		}
		vanished, err := s.decode(ids)
		if err != nil {
			return nil, err
		}
		if !vanished {
			return s.collect(hashes)
		}
		if attempt >= 3 {
			return nil, errBlobMissing
		}
	}
}

var errBlobMissing = errors.New("castore: indexed blob missing from its segment")

// undecoded returns, ascending, the segments the index places requested
// blobs in that the session has not decoded yet.
func (s *Session) undecoded(hashes []string) ([]int, error) {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var ids []int
	for _, h := range hashes {
		if _, ok := s.blobs[h]; ok {
			continue
		}
		id, ok := st.known[h]
		if !ok {
			return nil, fmt.Errorf("castore: unknown blob %s", h)
		}
		if !s.decoded[id] && !containsInt(ids, id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// decode reads and decodes the given segments in parallel and merges their
// blobs into the session, lowest id first (first mention wins). vanished
// reports a segment unlinked since the index lookup; other errors are
// returned for the lowest failing id.
func (s *Session) decode(ids []int) (vanished bool, err error) {
	type result struct {
		blobs []Blob
		err   error
	}
	res := parallel.Map(len(ids), func(i int) result {
		blobs, err := s.st.readSegment(ids[i])
		return result{blobs, err}
	})
	for i, r := range res {
		if errors.Is(r.err, os.ErrNotExist) {
			vanished = true
			continue
		}
		if r.err != nil {
			return false, r.err
		}
		for _, b := range r.blobs {
			if _, ok := s.blobs[b.Key]; len(b.Data) > 0 && !ok {
				s.blobs[b.Key] = sessionBlob{seg: ids[i], data: b.Data}
			}
		}
		s.decoded[ids[i]] = true
	}
	return vanished, nil
}

// collect verifies the requested blobs against their keys, in parallel,
// and returns them.
func (s *Session) collect(hashes []string) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(hashes))
	want := make([]string, 0, len(hashes))
	for _, h := range hashes {
		if _, dup := out[h]; dup {
			continue
		}
		b, ok := s.blobs[h]
		if !ok {
			return nil, errBlobMissing
		}
		out[h] = b.data
		want = append(want, h)
	}
	err := parallel.ForEachErr(len(want), func(i int) error {
		b := s.blobs[want[i]]
		if got := KeyOf(b.data); got != want[i] {
			return fmt.Errorf("castore: segment %d: blob %s content hashes to %s", b.seg, want[i], got)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readSegment reads one whole segment file with a single sized read and
// decodes it; binary blobs are sub-slices of that one buffer. A segment
// unlinked by a concurrent compaction yields an error wrapping
// os.ErrNotExist.
func (st *Store) readSegment(id int) ([]Blob, error) {
	data, err := os.ReadFile(filepath.Join(st.dir, fmt.Sprintf(segPattern, id)))
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	blobs, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("castore: segment %d: %w", id, err)
	}
	return blobs, nil
}

// OpenSegments opens every live segment for reading, in id order; a
// file's segment name is filepath.Base(f.Name()). The files stay readable
// even if a concurrent compaction unlinks them (POSIX semantics), so a
// streaming reader gets a consistent snapshot of the store without
// blocking writers. A segment compacted away before its open is skipped:
// its blobs live on in the merged segment, which a fresh call returns.
// The caller closes the files.
func (st *Store) OpenSegments() ([]*os.File, error) {
	st.mu.Lock()
	ids := append([]int(nil), st.segs...)
	st.mu.Unlock()

	var files []*os.File
	for _, id := range ids {
		f, err := os.Open(filepath.Join(st.dir, fmt.Sprintf(segPattern, id)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			closeAll(files)
			return nil, fmt.Errorf("castore: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func closeAll(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

// Compact merges every live segment into one new segment carrying only
// the blobs in live, then unlinks the old segments. At most one
// compaction runs at a time; a concurrent call returns immediately with
// compacted=false. live must cover every key appended before the call:
// a blob whose Append completes after the caller computed live but before
// Compact captures its segment list is swept as dead, so the caller must
// keep new keys from being appended between the two. Appends and Fetches
// may run concurrently with the sweep itself — the merged segment covers
// exactly the segments captured at entry, and segments appended later are
// untouched.
//
// Crash safety: the merged segment is published atomically before any old
// segment is unlinked, so every crash point leaves all live blobs
// reachable — the worst case is duplicate copies of a blob across the
// merged and not-yet-unlinked old segments, which Open dedupes by hash.
func (st *Store) Compact(live map[string]bool) (compacted bool, err error) {
	st.mu.Lock()
	if st.compacting {
		st.mu.Unlock()
		return false, nil
	}
	st.compacting = true
	oldIDs := append([]int(nil), st.segs...)
	id := st.nextSeg
	st.nextSeg++
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.compacting = false
		st.mu.Unlock()
	}()

	if len(oldIDs) == 0 {
		return false, nil
	}

	// Gather the retained blobs from the old segments, first mention wins.
	// Legacy JSON segments are rewritten into the binary layout here.
	var merged []Blob
	kept := make(map[string]bool)
	for _, oid := range oldIDs {
		blobs, err := st.readSegment(oid)
		if err != nil {
			return false, err
		}
		for _, b := range blobs {
			if len(b.Data) == 0 || kept[b.Key] {
				continue
			}
			if live != nil && !live[b.Key] {
				continue
			}
			kept[b.Key] = true
			merged = append(merged, b)
		}
	}

	replace := func(newSegs []int) {
		st.mu.Lock()
		// Keep segments appended while we compacted; drop the merged-away
		// ids and re-point every kept hash at the merged segment. Hashes
		// dropped as dead are deleted unless a concurrent append re-added
		// them into a newer segment.
		retain := newSegs
		for _, sid := range st.segs {
			if !containsInt(oldIDs, sid) {
				retain = append(retain, sid)
			}
		}
		sort.Ints(retain)
		st.segs = retain
		for h, sid := range st.known {
			if !containsInt(oldIDs, sid) {
				continue
			}
			if kept[h] && len(newSegs) > 0 {
				st.known[h] = newSegs[0]
			} else {
				delete(st.known, h)
			}
		}
		st.mu.Unlock()
	}

	if len(merged) == 0 {
		// Nothing retained: just drop the old segments.
		replace(nil)
	} else {
		if err := st.writeSegment(id, merged); err != nil {
			return false, err
		}
		replace([]int{id})
	}

	// Unlink the merged-away segments only after the merged segment is
	// durable and the in-memory index no longer references them.
	for _, oid := range oldIDs {
		if err := os.Remove(filepath.Join(st.dir, fmt.Sprintf(segPattern, oid))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("castore: %w", err)
		}
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		return false, fmt.Errorf("castore: sync dir: %w", err)
	}
	return true, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

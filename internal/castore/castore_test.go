package castore

// Crash-safety contract under test: Append is all-or-nothing (a failed or
// torn segment write leaves the store — on disk and in memory — exactly as
// before), Compact never makes a live blob unreachable at any crash point,
// and Open recovers the exact blob set from whatever mix of temp files and
// duplicate segments a crash left behind.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"malgraph/internal/faultinject"
)

// blobOf builds a valid Blob from a short string (stored quoted).
func blobOf(s string) Blob {
	data := []byte(strconv.Quote(s))
	return Blob{Key: KeyOf(data), Data: data}
}

// fetchAll fails the test unless every blob round-trips byte-identically.
func fetchAll(t *testing.T, st *Store, blobs []Blob) {
	t.Helper()
	keys := make([]string, len(blobs))
	for i, b := range blobs {
		keys[i] = b.Key
	}
	got, err := st.Fetch(keys)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	for _, b := range blobs {
		if string(got[b.Key]) != string(b.Data) {
			t.Fatalf("blob %s: got %s, want %s", b.Key, got[b.Key], b.Data)
		}
	}
}

func TestAppendFetchRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Blob{blobOf("alpha"), blobOf("beta"), blobOf("gamma")}
	n, err := st.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Append wrote %d blobs, want 3", n)
	}
	if st.Len() != 3 || st.SegmentCount() != 1 {
		t.Fatalf("Len=%d SegmentCount=%d, want 3 and 1", st.Len(), st.SegmentCount())
	}
	fetchAll(t, st, batch)

	// Duplicate and intra-batch-duplicate appends write nothing new.
	n, err = st.Append([]Blob{batch[0], batch[0], batch[2]})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("duplicate Append wrote %d blobs, want 0", n)
	}
	if st.SegmentCount() != 1 {
		t.Fatalf("duplicate Append grew SegmentCount to %d", st.SegmentCount())
	}

	// Missing preserves order and dedupes; Has agrees.
	other := blobOf("delta")
	miss := st.Missing([]string{other.Key, batch[1].Key, other.Key})
	if len(miss) != 1 || miss[0] != other.Key {
		t.Fatalf("Missing = %v, want [%s]", miss, other.Key)
	}
	if !st.Has(batch[0].Key) || st.Has(other.Key) {
		t.Fatal("Has disagrees with stored contents")
	}

	// A second distinct batch lands in its own segment and both stay readable
	// after reopening from disk alone.
	if _, err := st.Append([]Blob{other}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(st.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 || re.SegmentCount() != 2 {
		t.Fatalf("reopen: Len=%d SegmentCount=%d, want 4 and 2", re.Len(), re.SegmentCount())
	}
	fetchAll(t, re, append(batch, other))
}

func TestAppendRejectsKeyMismatch(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := blobOf("honest")
	bad.Key = KeyOf([]byte(`"forged"`))
	if _, err := st.Append([]Blob{blobOf("fine"), bad}); err == nil {
		t.Fatal("Append accepted a blob whose key does not match its content")
	}
	if st.Len() != 0 || st.SegmentCount() != 0 {
		t.Fatalf("rejected batch left state behind: Len=%d SegmentCount=%d", st.Len(), st.SegmentCount())
	}
}

func TestFetchUnknownKeyErrors(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fetch([]string{KeyOf([]byte(`"ghost"`))}); err == nil {
		t.Fatal("Fetch of an unknown key succeeded")
	}
}

// TestOpenRemovesInterruptedWriteTemp covers the crash-mid-segment-write
// recovery path: a kill between OpenFile and rename leaves a .castore-*
// temp file that was never referenced; Open must delete it and index only
// the published segments.
func TestOpenRemovesInterruptedWriteTemp(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Blob{blobOf("kept")}
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn leftover: half a segment under the temp prefix.
	tmp := filepath.Join(dir, tempPrefix+"seg-00000002.json")
	if err := os.WriteFile(tmp, []byte(`{"hashes":["deadbeef"`), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived Open: stat err = %v", err)
	}
	if re.Len() != 1 || re.SegmentCount() != 1 {
		t.Fatalf("reopen after torn temp: Len=%d SegmentCount=%d, want 1 and 1", re.Len(), re.SegmentCount())
	}
	fetchAll(t, re, batch)
}

// TestAppendCrashMidWriteIsAtomic injects write and sync failures into the
// segment write and checks Append is all-or-nothing: the error surfaces,
// earlier blobs stay readable, the new blobs are not indexed, and a reopen
// from disk sees no trace of the failed segment.
func TestAppendCrashMidWriteIsAtomic(t *testing.T) {
	for _, mode := range []string{"write-torn", "sync"} {
		t.Run(mode, func(t *testing.T) {
			fi := faultinject.NewFS(nil)
			dir := t.TempDir()
			st, err := Open(dir, fi)
			if err != nil {
				t.Fatal(err)
			}
			first := []Blob{blobOf("durable")}
			if _, err := st.Append(first); err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "write-torn":
				fi.FailWrite(1, 7) // tear the next segment write mid-record
			case "sync":
				fi.FailSync(1) // segment bytes written but never durable
			}
			if _, err := st.Append([]Blob{blobOf("lost")}); err == nil {
				t.Fatal("Append succeeded despite injected failure")
			}
			if st.Len() != 1 || st.SegmentCount() != 1 {
				t.Fatalf("failed Append mutated state: Len=%d SegmentCount=%d", st.Len(), st.SegmentCount())
			}
			fetchAll(t, st, first)
			// The same store keeps working after the fault clears.
			second := []Blob{blobOf("after-fault")}
			if _, err := st.Append(second); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if re.Len() != 2 {
				t.Fatalf("reopen Len=%d, want 2", re.Len())
			}
			fetchAll(t, re, append(first, second...))
		})
	}
}

func TestCompactMergesAndDropsDeadBlobs(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An empty blob is a blob like any other: it fetches and survives.
	live := []Blob{blobOf("live-1"), blobOf("live-2"), blobOf("live-3"), {Key: KeyOf(nil), Data: []byte{}}}
	dead := []Blob{blobOf("dead-1"), blobOf("dead-2")}
	for _, b := range append(append([]Blob(nil), live...), dead...) {
		if _, err := st.Append([]Blob{b}); err != nil { // one segment per blob
			t.Fatal(err)
		}
	}
	keep := make(map[string]bool)
	for _, b := range live {
		keep[b.Key] = true
	}
	compacted, err := st.Compact(keep)
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("Compact reported nothing to do")
	}
	if st.SegmentCount() != 1 || st.Len() != len(live) {
		t.Fatalf("after compact: SegmentCount=%d Len=%d, want 1 and %d", st.SegmentCount(), st.Len(), len(live))
	}
	fetchAll(t, st, live)
	for _, b := range dead {
		if st.Has(b.Key) {
			t.Fatalf("dead blob %s survived compaction", b.Key)
		}
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(live) || re.SegmentCount() != 1 {
		t.Fatalf("reopen after compact: Len=%d SegmentCount=%d", re.Len(), re.SegmentCount())
	}
	fetchAll(t, re, live)
}

// TestCompactCrashPointsKeepLiveBlobsReachable walks the two observable
// crash states of a compaction — merged segment published with the old
// segments not yet unlinked, and merge failed before publish — and checks
// Open recovers every live blob from either (first mention wins on the
// duplicates).
func TestCompactCrashPointsKeepLiveBlobsReachable(t *testing.T) {
	t.Run("published-before-unlink", func(t *testing.T) {
		dir := t.TempDir()
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		blobs := []Blob{blobOf("x"), blobOf("y")}
		for _, b := range blobs {
			if _, err := st.Append([]Blob{b}); err != nil {
				t.Fatal(err)
			}
		}
		// Write the merged segment by hand, as if the compaction crashed
		// after publishing it but before unlinking seg 1 and 2.
		var merged bytes.Buffer
		if err := encodeSegment(&merged, blobs); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segPattern, 3)), merged.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != 2 || re.SegmentCount() != 3 {
			t.Fatalf("duplicated store: Len=%d SegmentCount=%d, want 2 and 3", re.Len(), re.SegmentCount())
		}
		fetchAll(t, re, blobs)
		// A finished compaction on the recovered store settles the layout:
		// one segment, nothing lost, and new ids never collide with seg 3.
		keep := map[string]bool{blobs[0].Key: true, blobs[1].Key: true}
		if _, err := re.Compact(keep); err != nil {
			t.Fatal(err)
		}
		if re.SegmentCount() != 1 {
			t.Fatalf("re-compacted SegmentCount=%d, want 1", re.SegmentCount())
		}
		fetchAll(t, re, blobs)
	})

	t.Run("merge-write-fails", func(t *testing.T) {
		fi := faultinject.NewFS(nil)
		dir := t.TempDir()
		st, err := Open(dir, fi)
		if err != nil {
			t.Fatal(err)
		}
		blobs := []Blob{blobOf("p"), blobOf("q")}
		for _, b := range blobs {
			if _, err := st.Append([]Blob{b}); err != nil {
				t.Fatal(err)
			}
		}
		keep := map[string]bool{blobs[0].Key: true, blobs[1].Key: true}
		fi.FailSync(1) // merged segment never becomes durable
		if _, err := st.Compact(keep); err == nil {
			t.Fatal("Compact succeeded despite injected sync failure")
		}
		// Old segments are untouched; everything still reachable, both live
		// and after a fresh Open, and a retried compaction succeeds.
		fetchAll(t, st, blobs)
		re, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != 2 || re.SegmentCount() != 2 {
			t.Fatalf("after failed compact: Len=%d SegmentCount=%d, want 2 and 2", re.Len(), re.SegmentCount())
		}
		fetchAll(t, re, blobs)
		compacted, err := st.Compact(keep)
		if err != nil || !compacted {
			t.Fatalf("retried Compact = %v, %v", compacted, err)
		}
		if st.SegmentCount() != 1 {
			t.Fatalf("retried compact SegmentCount=%d, want 1", st.SegmentCount())
		}
		fetchAll(t, st, blobs)
	})
}

// TestConcurrentAppendFetchCompact hammers the three public mutations from
// concurrent goroutines; run under -race this checks the locking story, and
// the final sweep checks no committed blob was lost to a compaction race.
// The schedule honours Compact's contract that live covers every key
// appended before the call: writers declare a key under gate's read lock
// before their (unlocked) Append, and the compactor holds the write lock
// from computing live until Compact returns — Appends and Fetches still run
// concurrently with the sweep itself.
func TestConcurrentAppendFetchCompact(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 16
	var mu sync.Mutex
	committed := make(map[string]string) // key → data, guarded by mu
	declared := make(map[string]bool)    // keys about to be appended, guarded by mu
	var gate sync.RWMutex
	liveSet := func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		live := make(map[string]bool, len(declared))
		for k := range declared {
			live[k] = true
		}
		return live
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b := blobOf(fmt.Sprintf("writer-%d-blob-%d", w, i))
				gate.RLock()
				mu.Lock()
				declared[b.Key] = true
				mu.Unlock()
				gate.RUnlock()
				if _, err := st.Append([]Blob{b}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				committed[b.Key] = string(b.Data)
				keys := make([]string, 0, len(committed))
				for k := range committed {
					keys = append(keys, k)
				}
				mu.Unlock()
				if got, err := st.Fetch(keys); err != nil {
					t.Errorf("Fetch: %v", err)
					return
				} else if len(got) != len(keys) {
					t.Errorf("Fetch returned %d blobs, want %d", len(got), len(keys))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			gate.Lock()
			_, err := st.Compact(liveSet())
			gate.Unlock()
			if err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	keys := make([]string, 0, len(committed))
	for k := range committed {
		keys = append(keys, k)
	}
	got, err := st.Fetch(keys)
	if err != nil {
		t.Fatalf("final Fetch: %v", err)
	}
	for k, want := range committed {
		if string(got[k]) != want {
			t.Fatalf("blob %s: got %s, want %s", k, got[k], want)
		}
	}
	re, err := Open(st.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() < len(committed) {
		t.Fatalf("reopen indexed %d blobs, committed %d", re.Len(), len(committed))
	}
}

// TestSegmentIDsNeverReused checks nextSeg stays strictly monotonic across
// compactions within a process: ids of unlinked segments must not come back,
// or a crash-surviving old file could alias a new segment's contents.
func TestSegmentIDsNeverReused(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := blobOf("gen-1")
	if _, err := st.Append([]Blob{a}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(map[string]bool{a.Key: true}); err != nil {
		t.Fatal(err)
	}
	b := blobOf("gen-2")
	if _, err := st.Append([]Blob{b}); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	maxID := 0
	for _, de := range names {
		var id int
		if n, _ := fmt.Sscanf(de.Name(), segPattern, &id); n == 1 && id > maxID {
			maxID = id
		}
	}
	// seg 1 appended, compacted into seg 2, seg 3 appended after.
	if maxID != 3 {
		t.Fatalf("max segment id = %d, want 3 (monotonic ids)", maxID)
	}
	if strings.HasPrefix(names[0].Name(), tempPrefix) {
		t.Fatalf("temp file left behind: %s", names[0].Name())
	}
}

// TestParseSegmentNameIsStrict pins the segment-name rule Open and the
// snapshot bundle reader share: only the canonical spelling names a
// segment, so stray copies and hand-made names are never read as one.
func TestParseSegmentNameIsStrict(t *testing.T) {
	for name, want := range map[string]int{
		"seg-00000001.json": 1,
		"seg-12345678.json": 12345678,
	} {
		if id, ok := ParseSegmentName(name); !ok || id != want {
			t.Errorf("ParseSegmentName(%q) = %d, %v; want %d, true", name, id, ok, want)
		}
	}
	for _, name := range []string{
		"seg-00000001.json.bak", "seg-00000001.jsonx", "seg-1.json",
		"seg-00000000.json", "seg--0000001.json", "seg-0000001x.json",
		".castore-seg-00000001.json", "../seg-00000001.json", "seg-00000001",
	} {
		if id, ok := ParseSegmentName(name); ok {
			t.Errorf("ParseSegmentName(%q) accepted it as segment %d", name, id)
		}
	}
}

// TestOpenIgnoresStraySegmentCopies: a stray copy of a segment under a
// near-miss name must neither register the segment twice (the bundle would
// stream it twice, compaction list it twice) nor, on its own, index blobs
// that Fetch cannot open.
func TestOpenIgnoresStraySegmentCopies(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Blob{blobOf("one"), blobOf("two")}
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-00000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	strays := []string{"seg-00000001.json.bak", "seg-00000001.jsonx", "seg-1.json"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.SegmentCount() != 1 || re.Len() != 2 {
		t.Fatalf("reopen with stray copies: SegmentCount=%d Len=%d, want 1 and 2", re.SegmentCount(), re.Len())
	}
	fetchAll(t, re, batch)
	files, err := re.OpenSegments()
	if err != nil {
		t.Fatal(err)
	}
	closeAll(files)
	if len(files) != 1 || filepath.Base(files[0].Name()) != "seg-00000001.json" {
		t.Fatalf("OpenSegments opened %d files, want only seg-00000001.json", len(files))
	}

	// Only the stray copies: nothing is indexed.
	if err := os.Remove(filepath.Join(dir, "seg-00000001.json")); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.SegmentCount() != 0 || re.Len() != 0 {
		t.Fatalf("stray copies alone: SegmentCount=%d Len=%d, want 0 and 0", re.SegmentCount(), re.Len())
	}
}

// TestSessionFetchDecodesOnceAndVerifies: a session serves every blob of a
// segment it has decoded from memory — even once the file is gone — while
// a plain Fetch re-reads the file; and a blob tampered on disk fails its
// content-hash check through a fresh session.
func TestSessionFetchDecodesOnceAndVerifies(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := blobOf("alpha"), blobOf("beta")
	if _, err := st.Append([]Blob{a, b}); err != nil {
		t.Fatal(err)
	}
	sess := st.Session()
	got, err := sess.Fetch([]string{a.Key})
	if err != nil || string(got[a.Key]) != string(a.Data) {
		t.Fatalf("session Fetch(a) = %s, %v", got[a.Key], err)
	}
	path := filepath.Join(dir, "seg-00000001.json")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, err = sess.Fetch([]string{b.Key, a.Key})
	if err != nil {
		t.Fatalf("session Fetch after unlink: %v", err)
	}
	if string(got[a.Key]) != string(a.Data) || string(got[b.Key]) != string(b.Data) {
		t.Fatalf("session Fetch after unlink returned %q / %q", got[a.Key], got[b.Key])
	}
	if _, err := st.Fetch([]string{b.Key}); err == nil {
		t.Fatal("plain Fetch succeeded with the segment file gone")
	}
	if _, err := sess.Fetch([]string{KeyOf([]byte(`"ghost"`))}); err == nil ||
		!strings.Contains(err.Error(), "unknown blob") {
		t.Fatalf("session Fetch of an unknown key: %v", err)
	}

	// Tamper with b's body on disk (same length, so the index prefix and
	// framing stay valid): a fresh session must refuse it.
	tampered := strings.Replace(string(seg), `"beta"`, `"bets"`, 1)
	if tampered == string(seg) {
		t.Fatalf("segment does not carry b's bytes as expected: %s", seg)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Session().Fetch([]string{b.Key}); err == nil ||
		!strings.Contains(err.Error(), "content hashes to") {
		t.Fatalf("fresh session Fetch of a tampered blob: %v", err)
	}
	// The untampered neighbour in the same segment still verifies.
	if got, err := st.Session().Fetch([]string{a.Key}); err != nil || string(got[a.Key]) != string(a.Data) {
		t.Fatalf("fresh session Fetch(a) next to a tampered blob = %s, %v", got[a.Key], err)
	}
}

// Has reports whether the blob with the given hash is stored.
func (st *Store) Has(hash string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.known[hash]
	return ok
}

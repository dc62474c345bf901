package main

// Bundle streaming: GET /api/v1/snapshot sends the last checkpoint, its
// manifest and every store segment, as one framed stream.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
)

// The snapshot bundle is the GET /api/v1/snapshot wire format: a JSON
// header line naming the format, the manifest size and the segment count;
// the raw manifest bytes; then, per segment, a JSON frame line ({name,
// size}), the segment's raw bytes streamed straight from disk, and a JSON
// trailer line carrying the CRC-32 (IEEE) of those bytes. Only the header,
// frame and trailer lines are line-framed; the manifest and segment bodies
// are length-prefixed by them. Nothing is buffered whole: memory stays
// O(1) in store size on both ends.
const bundleFormat = "malgraph-snapshot-bundle/1"

type bundleHeader struct {
	Format       string `json:"format"`
	ManifestSize int    `json:"manifestSize"`
	Segments     int    `json:"segments"`
}

type bundleFrame struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

type bundleTrailer struct {
	CRC32 string `json:"crc32"`
}

// handleSnapshotBundle streams the current segmented checkpoint. The
// manifest comes from the snapshot file the last checkpoint published (the
// first GET before any checkpoint runs one); manifest read and segment
// opens happen under checkpointMu so a concurrent compaction cannot drop a
// chunk the manifest references — once the segment files are open, a later
// unlink does not revoke them. A failure after the header has been written
// aborts the connection; the client detects it through the framing and the
// per-segment CRCs.
func (s *server) handleSnapshotBundle(w http.ResponseWriter) {
	s.checkpointMu.Lock()
	if _, err := os.Stat(s.snapshotPath); os.IsNotExist(err) {
		if _, err := s.checkpoint(); err != nil {
			s.checkpointMu.Unlock()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	manifest, err := os.ReadFile(s.snapshotPath)
	if err == nil && (len(manifest) == 0 || manifest[len(manifest)-1] != '\n') {
		err = fmt.Errorf("snapshot %s is not a line-framed manifest", s.snapshotPath)
	}
	if err != nil {
		s.checkpointMu.Unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	files, err := s.store.OpenSegments()
	s.checkpointMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	w.Header().Set("Content-Type", "application/octet-stream")
	enc := json.NewEncoder(w)
	if err := enc.Encode(bundleHeader{Format: bundleFormat, ManifestSize: len(manifest), Segments: len(files)}); err != nil {
		return
	}
	if _, err := w.Write(manifest); err != nil {
		return
	}
	for _, f := range files {
		info, err := f.Stat()
		if err != nil {
			panic(http.ErrAbortHandler) // headers sent; cut the connection
		}
		if err := enc.Encode(bundleFrame{Name: filepath.Base(f.Name()), Size: info.Size()}); err != nil {
			return
		}
		crc := crc32.NewIEEE()
		if _, err := io.Copy(io.MultiWriter(w, crc), f); err != nil {
			return
		}
		if err := enc.Encode(bundleTrailer{CRC32: fmt.Sprintf("%08x", crc.Sum32())}); err != nil {
			return
		}
	}
}

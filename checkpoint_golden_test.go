package malgraph

// The checkpoint suites restore what they write, so a change to the chunk
// encoding, the blob order in a segment or the re-base policy that stays
// self-consistent passes them. TestCheckpointGoldenBytes pins the bytes
// themselves: a restart reads manifests and segments an older build wrote.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"malgraph/internal/castore"
)

// The checkpoint goldens of the seed-1, scale-0.05, 200-batch feed
// checkpointed after every batch: one SHA-256 over the 200 manifests, in
// order, and one over every segment file of its store, in name order, so a
// change shows which half it moved. The schedule re-bases every section at
// least twice.
const (
	checkpointGoldenManifests = "4042e68a144f2171fb779f34f08365b7a9444e18753118a97faad348ee0f8a32"
	checkpointGoldenSegments  = "458d5af685c13e698bd872abd2b1a793793aa6c4d34be111ee7eb46a1e44336b"
)

func TestCheckpointGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds")
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		manifests, segments, err := checkpointBytesDigest(t.TempDir())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if manifests != checkpointGoldenManifests {
			t.Errorf("GOMAXPROCS=%d: manifests digest %s, want %s", procs, manifests, checkpointGoldenManifests)
		}
		if segments != checkpointGoldenSegments {
			t.Errorf("GOMAXPROCS=%d: segments digest %s, want %s", procs, segments, checkpointGoldenSegments)
		}
	}
}

// checkpointBytesDigest drains the 200-batch feed into a pipeline with a
// fresh store in dir, checkpointing after every batch, and hashes the
// manifests in order and, apart, the store's segment files in name order.
func checkpointBytesDigest(dir string) (manifests, segments string, err error) {
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, 200)
	if err != nil {
		return "", "", err
	}
	st, err := castore.Open(dir, nil)
	if err != nil {
		return "", "", err
	}
	p.AttachStore(st)
	h := sha256.New()
	for {
		_, ok, err := p.AppendNext()
		if err != nil {
			return "", "", err
		}
		if !ok {
			break
		}
		var man bytes.Buffer
		if err := p.SnapshotEngine(&man); err != nil {
			return "", "", err
		}
		h.Write(man.Bytes())
	}
	manifests = hex.EncodeToString(h.Sum(nil))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	var names []string
	for _, ent := range ents {
		if _, ok := castore.ParseSegmentName(ent.Name()); ok {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	h.Reset()
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", "", err
		}
		h.Write(raw)
	}
	return manifests, hex.EncodeToString(h.Sum(nil)), nil
}

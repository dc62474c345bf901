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

// checkpointGolden is one SHA-256 over the 200 manifests a per-batch
// checkpoint of the seed-1, scale-0.05, 200-batch feed writes, in order,
// then over every segment file of its store in name order. The schedule
// re-bases every section at least twice and writes partition deletes.
const checkpointGolden = "e2392e1dad221a5c503aa28b8af865f6257296aa7a5835dbe917909931bd20e3"

func TestCheckpointGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline builds")
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := checkpointBytesDigest(t.TempDir())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got != checkpointGolden {
			t.Errorf("GOMAXPROCS=%d: checkpoint bytes digest %s, want %s", procs, got, checkpointGolden)
		}
	}
}

// checkpointBytesDigest drains the 200-batch feed into a pipeline with a
// fresh store in dir, checkpointing after every batch, and hashes the
// manifests in order and then the store's segment files in name order.
func checkpointBytesDigest(dir string) (string, error) {
	p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, 200)
	if err != nil {
		return "", err
	}
	st, err := castore.Open(dir, nil)
	if err != nil {
		return "", err
	}
	p.AttachStore(st)
	h := sha256.New()
	for {
		_, ok, err := p.AppendNext()
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		var man bytes.Buffer
		if err := p.SnapshotEngine(&man); err != nil {
			return "", err
		}
		h.Write(man.Bytes())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, ent := range ents {
		if _, ok := castore.ParseSegmentName(ent.Name()); ok {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

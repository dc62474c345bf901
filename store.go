package malgraph

// Segmented checkpoints: with a content-addressed store attached, the
// pipeline's engine checkpoints as a small manifest (written wherever the
// snapshot used to go — same atomic-rename and WAL-truncation contracts)
// plus delta chunks in the store, so checkpoint cost tracks the ingest
// delta instead of the corpus. See internal/castore and core snapshot v5.

import (
	"fmt"
	"io"

	"malgraph/internal/castore"
	"malgraph/internal/core"
)

// AttachStore routes every future engine checkpoint through the segmented
// v5 path backed by st and starts delta tracking. Attach before the first
// Checkpoint; the first checkpoint after attaching writes the full state
// into the store (later ones write only what changed).
func (p *Pipeline) AttachStore(st *castore.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Engine.AttachStore(st)
}

// Store returns the engine's attached content store, or nil.
func (p *Pipeline) Store() *castore.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Engine.Store()
}

// LiveRefs returns every store blob the engine's current manifest state
// references — the input to compaction, which additionally unions the refs
// of retained (archived) manifests before sweeping.
func (p *Pipeline) LiveRefs() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Engine.LiveRefs()
}

// RestoreEngineWithStore is RestoreEngine for store-backed checkpoints: a
// v5 manifest resolves its chunk references against st, and a monolithic
// v3/v4 snapshot restores as before and then has the store attached (the
// upgrade path — its first checkpoint re-bases everything into the store).
// Either way the pipeline keeps checkpointing segmentedly afterwards.
func (p *Pipeline) RestoreEngineWithStore(r io.Reader, st *castore.Store) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng, err := core.RestoreEngineWithStore(r, st)
	if err != nil {
		return fmt.Errorf("malgraph: restore: %w", err)
	}
	p.adoptEngineLocked(eng)
	return nil
}

// AdoptEngine swaps in an engine restored outside the pipeline — serve
// restores its snapshot while the world builds — and republishes exactly
// as RestoreEngine does after its own restore.
func (p *Pipeline) AdoptEngine(eng *core.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.adoptEngineLocked(eng)
}

package malgraph

// Segmented checkpoints: with a content-addressed store attached, the
// pipeline's engine checkpoints as a small manifest (same atomic-rename and
// WAL-truncation contracts as any Checkpoint) plus delta chunks in the
// store, so checkpoint cost tracks the ingest delta instead of the corpus.
// Serve always attaches one; a library pipeline without a store still
// checkpoints as a monolithic v4 snapshot. See internal/castore and core
// snapshot v5.

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

// RestoreEngineWithStore restores a snapshot stream through st
// (core.RestoreEngineWithStore) and adopts the engine with AdoptEngine.
// servebench's layer replay, a separate module, times this call; code in
// this module restores with core and adopts directly.
func (p *Pipeline) RestoreEngineWithStore(r io.Reader, st *castore.Store) error {
	eng, err := core.RestoreEngineWithStore(r, st)
	if err != nil {
		return fmt.Errorf("malgraph: restore: %w", err)
	}
	p.AdoptEngine(eng)
	return nil
}

package malgraph

// Segmented checkpoints: the pipeline's engine checkpoints as a small
// manifest (Checkpoint's atomic-rename and WAL-truncation contracts) plus
// delta chunks in a content-addressed store, so checkpoint cost tracks the
// ingest delta instead of the corpus. A pipeline checkpoints only once a
// store is attached. See internal/castore and core/snapshot5.go.

import (
	"fmt"
	"io"

	"malgraph/internal/castore"
	"malgraph/internal/core"
)

// AttachStore gives the engine the content store every checkpoint writes
// to and starts delta tracking; Checkpoint fails without one. The first
// checkpoint after attaching writes the full state into the store (later
// ones write only what changed).
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
// (core.RestoreEngineWithStore: decode the dataset and the reports, then
// replay them as one ingest) and adopts the engine and its stamps with
// AdoptEngine.
// servebench's layer replay, a separate module, times this call; code in
// this module restores with core and adopts directly.
func (p *Pipeline) RestoreEngineWithStore(r io.Reader, st *castore.Store) error {
	eng, stamps, err := core.RestoreEngineWithStore(r, st)
	if err != nil {
		return fmt.Errorf("malgraph: restore: %w", err)
	}
	p.AdoptEngine(eng, stamps)
	return nil
}

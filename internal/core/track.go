package core

// Segmented-checkpoint section state. A store-attached engine keeps, per
// delta-logged section — the dataset entries and the reports, the two
// inputs everything else derives from — the chunk log the manifest
// publishes and the keys changed since the last checkpoint, so Snapshot
// writes O(delta) chunks instead of re-serialising the corpus. Storeless
// engines, which cannot checkpoint, hold no section state and record
// nothing.

import (
	"malgraph/internal/castore"
	"malgraph/internal/ecosys"
)

// dirtyKeys records the keys of one section written since the last
// checkpoint; a checkpoint writes each one's live value.
type dirtyKeys map[string]struct{}

func (d dirtyKeys) set(key string) { d[key] = struct{}{} }

// section is one delta-logged section's checkpoint state: its durable chunk
// log and the keys changed since the last checkpoint.
type section struct {
	log   sectionLog
	dirty dirtyKeys
}

// sectionLog is one section's durable chunk accounting: the ordered chunk
// references the manifest publishes, plus the counters the re-base policy
// reads. refs apply in order — later chunks' sets and deletes supersede
// earlier ones.
type sectionLog struct {
	refs []string
	// logged counts keys written across refs since the last re-base; when it
	// dwarfs the live key count the log is mostly superseded writes and a
	// re-base reclaims the space.
	logged int
	// rebase forces the next checkpoint to re-encode the section fully —
	// set at attach time, when the store knows nothing yet.
	rebase bool
}

// maxSectionChunks bounds a section's manifest ref list; beyond it the next
// checkpoint re-bases the section into one chunk so restore never replays an
// unbounded chain.
const maxSectionChunks = 64

// rebaseDue reports whether the section should be re-encoded fully: an
// explicit request, a ref chain past the bound, or a log carrying several
// times more superseded writes than live keys.
func (lg *sectionLog) rebaseDue(liveKeys int) bool {
	if lg.rebase || len(lg.refs) >= maxSectionChunks {
		return true
	}
	floor := liveKeys
	if floor < 64 {
		floor = 64
	}
	return lg.logged > 4*floor
}

// sectionID indexes the delta-logged sections, in manifest order.
type sectionID int

const (
	secDataset sectionID = iota
	secReports
	numSections
)

// sectionNames are the sections' manifest keys, indexed by sectionID.
var sectionNames = [numSections]string{sectionDataset, sectionReports}

const (
	sectionDataset = "dataset"
	sectionReports = "reports"
)

// artifactRef caches the durable blob backing one entry's artifact. The
// pointer identity check is the cheap "unchanged" test: UpsertBatch replaces an
// entry's artifact wholesale when it changes, so a matching pointer means
// the cached key still describes the live bytes.
type artifactRef struct {
	art *ecosys.Artifact
	key string
}

// AttachStore gives the engine the content store its Snapshot calls write
// to, and starts recording changed keys. Every section starts in re-base mode, so the first checkpoint after
// attaching writes the full state. (RestoreEngineWithStore attaches its
// store with the manifest's chunk logs instead.)
func (e *Engine) AttachStore(st *castore.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attachStoreLocked(st)
}

func (e *Engine) attachStoreLocked(st *castore.Store) {
	e.store = st
	e.sections = make([]section, numSections)
	for id := range e.sections {
		e.sections[id] = section{log: sectionLog{rebase: true}, dirty: make(dirtyKeys)}
	}
	e.artifactRefs = make(map[string]artifactRef)
}

// Store returns the attached content store, or nil.
func (e *Engine) Store() *castore.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// LiveRefs returns every blob the current manifest state references — the
// chunk refs of all sections plus the artifact blobs reachable from the
// dataset. Compaction keeps exactly these and drops superseded chunks and
// unreferenced artifacts.
func (e *Engine) LiveRefs() map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := make(map[string]bool)
	for _, sec := range e.sections {
		for _, ref := range sec.log.refs {
			live[ref] = true
		}
	}
	for _, ref := range e.artifactRefs {
		live[ref.key] = true
	}
	return live
}

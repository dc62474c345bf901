package core

// Segmented-checkpoint dirty tracking. A store-attached engine records
// which keys of each persisted section changed since the last checkpoint so
// Snapshot can write O(delta) chunks instead of re-serialising the corpus.
// Tracking is off (and free) for storeless engines, which cannot checkpoint:
// every hook is behind an `e.track != nil` check.

import (
	"malgraph/internal/castore"
	"malgraph/internal/ecosys"
)

// tracker accumulates the dirty keys of each delta-logged section between
// checkpoints. All fields are guarded by Engine.mu (the shard-phase item,
// import and partition dirt lives on each ecoShard, which its planning
// goroutine owns exclusively).
type tracker struct {
	entries map[string]bool // dataset coordinate keys upserted or re-stated
	reports map[string]bool // report URLs newly merged into the corpus
	pairs   map[string]bool // coexOwner keys set since the last checkpoint
	// delPairs records coexOwner deletions (hub-and-path ownership drops);
	// a later set supersedes the delete and vice versa.
	delPairs map[string]bool
}

func newTracker() *tracker {
	return &tracker{
		entries:  make(map[string]bool),
		reports:  make(map[string]bool),
		pairs:    make(map[string]bool),
		delPairs: make(map[string]bool),
	}
}

func (t *tracker) pairSet(pk string) {
	t.pairs[pk] = true
	delete(t.delPairs, pk)
}

func (t *tracker) pairDel(pk string) {
	t.delPairs[pk] = true
	delete(t.pairs, pk)
}

// reset clears every dirty set after a successful checkpoint. The shard-side
// dirt is cleared by the checkpoint walk itself.
func (t *tracker) reset() {
	t.entries = make(map[string]bool)
	t.reports = make(map[string]bool)
	t.pairs = make(map[string]bool)
	t.delPairs = make(map[string]bool)
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

// sectionNames lists every delta-logged section in manifest order.
var sectionNames = []string{
	sectionDataset, sectionGraph, sectionItems, sectionImports,
	sectionPartitions, sectionReports, sectionPairOwners,
}

const (
	sectionDataset    = "dataset"
	sectionGraph      = "graph"
	sectionItems      = "items"
	sectionImports    = "imports"
	sectionPartitions = "partitions"
	sectionReports    = "reports"
	sectionPairOwners = "pairOwners"
)

// artifactRef caches the durable blob backing one entry's artifact. The
// pointer identity check is the cheap "unchanged" test: Upsert replaces an
// entry's artifact wholesale when it changes, so a matching pointer means
// the cached key still describes the live bytes.
type artifactRef struct {
	art *ecosys.Artifact
	key string
}

// AttachStore gives the engine the content store its Snapshot calls write
// to, and starts dirty tracking (including the graph's operation journal).
// Every section starts in re-base mode, so the first checkpoint after
// attaching writes the full state — correct both for a cold engine and for
// one upgraded from a monolithic v3/v4 snapshot.
func (e *Engine) AttachStore(st *castore.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attachStoreLocked(st)
}

func (e *Engine) attachStoreLocked(st *castore.Store) {
	e.store = st
	e.track = newTracker()
	e.logs = make(map[string]*sectionLog, len(sectionNames))
	for _, name := range sectionNames {
		e.logs[name] = &sectionLog{rebase: true}
	}
	e.artifactRefs = make(map[string]artifactRef)
	e.mg.G.EnableJournal()
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
	for _, lg := range e.logs {
		for _, ref := range lg.refs {
			live[ref] = true
		}
	}
	for _, ref := range e.artifactRefs {
		live[ref.key] = true
	}
	return live
}

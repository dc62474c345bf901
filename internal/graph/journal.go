package graph

import "fmt"

// Op is one journaled graph mutation. The journal exists so a checkpoint can
// persist the graph as a delta — the operations applied since the previous
// checkpoint — instead of re-serialising every node and edge. Replaying a
// journal on top of the graph state it was recorded against reproduces the
// original graph observationally: every removal primitive (tombstoning or
// compacting) preserves the relative insertion order of surviving edges, and
// WriteJSON serialises exactly that order, so journal replay round-trips to
// byte-identical persistence.
type Op struct {
	Kind  string   `json:"op"` // "node", "attr", "edge", "deledge"
	ID    string   `json:"id,omitempty"`
	Key   string   `json:"key,omitempty"`
	Value string   `json:"value,omitempty"`
	From  string   `json:"from,omitempty"`
	To    string   `json:"to,omitempty"`
	Type  EdgeType `json:"type,omitempty"`
	Attrs Attrs    `json:"attrs,omitempty"`
}

// EnableJournal starts recording mutations. Until enabled, recording costs
// nothing; once enabled the journal grows until DropJournalPrefix trims it,
// so only persistence-attached graphs should enable it. Clones never inherit
// an enabled journal.
func (g *Graph) EnableJournal() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journal == nil {
		g.journal = []Op{}
	}
}

// JournalOps returns a copy of the recorded operations without clearing
// them. The caller persists the ops and, once they are durable, calls
// DropJournalPrefix(len(ops)) — the two-step shape means a failed persist
// loses nothing.
func (g *Graph) JournalOps() []Op {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ops := make([]Op, len(g.journal))
	copy(ops, g.journal)
	return ops
}

// DropJournalPrefix discards the oldest n operations, keeping any recorded
// after the corresponding JournalOps call.
func (g *Graph) DropJournalPrefix(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n <= 0 || g.journal == nil {
		return
	}
	if n > len(g.journal) {
		n = len(g.journal)
	}
	// Reallocate so the dropped prefix's backing array is released.
	g.journal = append([]Op{}, g.journal[n:]...)
}

// recordLocked appends an op if journaling is enabled. Callers hold g.mu.
// Attrs maps recorded here are the maps installed into the graph; both
// sides treat them as immutable (SetAttr replaces rather than mutates), so
// sharing is safe and costs no copy.
func (g *Graph) recordLocked(op Op) {
	if g.journal != nil {
		g.journal = append(g.journal, op)
	}
}

// Apply replays journaled operations. Replaying onto the same base state the
// journal was recorded against reconstructs the original graph. It takes
// ownership of the ops' attribute maps: the graph installs them without a
// copy, so the caller must not modify them afterwards.
func (g *Graph) Apply(ops []Op) error {
	for _, op := range ops {
		switch op.Kind {
		case "node":
			if err := g.AddNode(op.ID, op.Attrs); err != nil {
				return err
			}
		case "attr":
			if err := g.SetAttr(op.ID, op.Key, op.Value); err != nil {
				return err
			}
		case "edge":
			if err := g.AddEdge(op.From, op.To, op.Type, op.Attrs); err != nil {
				return err
			}
		case "deledge":
			g.RemoveEdge(op.From, op.To, op.Type)
		default:
			return fmt.Errorf("graph: unknown journal op %q", op.Kind)
		}
	}
	return nil
}

package core

// The co-existing relation (§III-D): packages named together in one
// security report are linked. Reports are merged into a URL-sorted corpus
// and into the per-coordinate report index (MalGraph.reportsByPkg, every
// named coordinate, present in the graph or not); a pair's owner, the
// URL-smallest report covering it, is its co-existing edge's "report" attr.
// A wanted package arriving re-joins only the reports that name it; an
// out-of-order report re-derives only the report groups its packages
// overlap, repairing first-writer ownership per pair via a surgical
// graph.RemoveEdge — never the whole edge family.

import (
	"cmp"
	"slices"
	"sort"

	"malgraph/internal/graph"
	"malgraph/internal/reports"
)

// coexPlan is the §III-D co-existing join of one batch, planned with no
// graph write: the report index is already updated, and the commit replays
// the graph operations in the order a serial join issued them — first one
// RemoveEdgesIncident over hubMembers, then each pair's repair RemoveEdge
// and AddEdge in order — along with the stage's accounting.
type coexPlan struct {
	hubMembers []string
	pairs      []coexPair

	// claimed holds every pair (endpoints sorted) this batch has claimed.
	// Reports join in URL order, so a claimed pair belongs to a URL no
	// larger than the joining one.
	claimed map[[2]string]bool

	newReports, duplicates, conflicts int
	rejoined, repairs                 int
	scoped                            bool
}

// coexPair is one co-existing edge the commit inserts. repair marks a pair
// a larger-URL report owned: its edge is removed first, then re-inserted
// with this report's attrs. Every pair of one report shares its attrs map.
type coexPair struct {
	a, b   string
	attrs  graph.Attrs
	repair bool
}

// planCoexistingLocked merges new reports and maintains the §III-D
// report-join stage through the per-coordinate report index
// (MalGraph.reportsByPkg) and the pair owners the co-existing edges hold,
// emitting the graph operations for commitCoexistingLocked. Both former
// corpus-wide triggers are scoped:
//
//   - A newly ingested package some report was waiting for re-joins exactly
//     the reports its index list holds — their cliques gain the new
//     member's pairs, everything else is untouched.
//   - A late report (URL inside the ingested range) joins like any other;
//     pairs it covers that a larger-URL report currently owns are repaired
//     edge-by-edge (graph.RemoveEdge + re-insert with the smaller-URL
//     attrs), reproducing the one-shot URL-ordered join's first-writer
//     outcome.
//   - The only non-monotone case: a re-joined group that exceeds
//     PairwiseLimit emits a hub-and-path pair set that *changes shape* as
//     members arrive, so its members' co-existing edges are dropped
//     (graph.RemoveEdgesIncident, O(group degree)) and every report
//     overlapping those members re-joins — still scoped to the touched
//     groups.
//
// It runs beside applyNodes, so a package counts as present when the
// merged dataset holds it (presentMembers), never by asking the graph. Of
// the graph it reads only the co-existing edges, which only its own commit
// writes.
func (e *Engine) planCoexistingLocked(newReports []*reports.Report, changes []entryChange) *coexPlan {
	cp := &coexPlan{claimed: make(map[[2]string]bool)}

	// Wanted-package trigger: previously joined reports whose member set
	// grows this batch. The index is read before the batch's own reports
	// enter it, so the set holds only reports that genuinely need a
	// re-join — fresh reports are joined in full below anyway.
	rejoin := make(map[string]*reports.Report)
	for _, ch := range changes {
		if !ch.isNew {
			continue
		}
		for _, rep := range e.mg.ReportsByPackage(NodeID(ch.entry.Coord)) {
			rejoin[rep.URL] = rep
		}
	}

	// Merge fresh reports, splitting the in-order tail (URLs past the whole
	// ingested corpus — the steady-state feed shape) from late arrivals.
	var tail, late []*reports.Report
	fresh := make(map[string]*reports.Report)
	maxURL := ""
	if n := len(e.mg.Reports); n > 0 {
		maxURL = e.mg.Reports[n-1].URL
	}
	for _, rep := range newReports {
		if rep == nil {
			continue
		}
		if prev := cmp.Or(fresh[rep.URL], reportWithURL(e.mg.Reports, rep.URL)); prev != nil {
			// The corpus keeps the first crawl of a URL; surface the drop —
			// and whether the re-crawl's content differed — instead of
			// losing it without a trace.
			cp.duplicates++
			if !reportContentEqual(prev, rep) {
				cp.conflicts++
			}
			continue
		}
		fresh[rep.URL] = rep
		if e.sections != nil {
			e.sections[secReports].dirty.set(rep.URL)
		}
		// Every named coordinate is indexed, observed or not: its list is
		// what a later wanted-package arrival re-joins.
		for _, coord := range rep.Packages {
			e.indexReportForPackage(NodeID(coord), rep)
		}
		if rep.URL <= maxURL {
			late = append(late, rep)
		} else {
			tail = append(tail, rep)
		}
	}
	cp.newReports = len(tail) + len(late)
	sortReportsByURL(tail)
	sortReportsByURL(late)
	e.mg.Reports = mergeReportCorpus(e.mg.Reports, late, tail)

	// Hub-and-path closure: a grown group beyond PairwiseLimit re-derives
	// its pair set non-monotonically (the path through the sorted member
	// list changes shape), so its members' edges must be replaced and every
	// report naming any of those members re-joined. Member sets resolved
	// here are memoized for the join pass below.
	membersOf := make(map[string][]string, len(rejoin))
	for url, rep := range rejoin {
		m := e.presentMembers(rep)
		membersOf[url] = m
		if len(m) > e.cfg.PairwiseLimit {
			cp.hubMembers = append(cp.hubMembers, m...)
		}
	}
	if len(cp.hubMembers) > 0 {
		sort.Strings(cp.hubMembers)
		cp.hubMembers = slices.Compact(cp.hubMembers)
		for _, id := range cp.hubMembers {
			for _, rep := range e.mg.ReportsByPackage(id) {
				if fresh[rep.URL] == nil {
					rejoin[rep.URL] = rep
				}
			}
		}
	}

	cp.rejoined = len(rejoin)
	joinList := make([]*reports.Report, 0, len(rejoin)+len(tail)+len(late))
	for _, rep := range rejoin {
		joinList = append(joinList, rep)
	}
	joinList = append(joinList, tail...)
	joinList = append(joinList, late...)
	sortReportsByURL(joinList)
	for _, rep := range joinList {
		e.planJoinLocked(cp, rep, membersOf[rep.URL])
	}
	cp.scoped = cp.rejoined > 0 || len(late) > 0
	return cp
}

// commitCoexistingLocked applies a co-existing plan's graph operations in
// order and records the stage's accounting.
func (e *Engine) commitCoexistingLocked(cp *coexPlan, st *IngestStats) error {
	before := e.mg.G.EdgeCount(graph.Coexisting)
	st.NewReports = cp.newReports
	st.DuplicateReports = cp.duplicates
	st.DuplicateReportConflicts = cp.conflicts
	st.ReportsRejoined = cp.rejoined
	st.CoexistingScoped = cp.scoped
	st.CoexistingEdgesReplaced = cp.repairs
	if len(cp.hubMembers) > 0 {
		st.CoexistingEdgesReplaced += e.mg.G.RemoveEdgesIncident(graph.Coexisting, cp.hubMembers)
	}
	for _, p := range cp.pairs {
		if p.repair {
			e.mg.G.RemoveEdge(p.a, p.b, graph.Coexisting)
		}
		if err := e.mg.G.AddEdge(p.a, p.b, graph.Coexisting, p.attrs); err != nil {
			return err
		}
	}
	st.CoexistingDelta = e.mg.G.EdgeCount(graph.Coexisting) - before
	return nil
}

// planJoinLocked joins one report into the co-existing family: the report
// claims every pair it emits and is the URL-smallest cover of — repairing
// attrs a larger-URL report wrote first, exactly the outcome of a one-shot
// build's URL-ordered join. A pair's owner is the report its co-existing
// edge names, unless this batch claimed the pair or its commit drops the
// edge first (an endpoint in cp.hubMembers). Re-joining an already joined report adds no pair beyond those
// its grown member set added. members may carry a pre-resolved
// presentMembers result (nil resolves it here).
func (e *Engine) planJoinLocked(cp *coexPlan, rep *reports.Report, members []string) {
	if members == nil {
		members = e.presentMembers(rep)
	}
	if len(members) < 2 {
		return
	}
	attrs := graph.Attrs{"report": rep.URL}
	// emit never fails, so neither does pairwise.
	_ = pairwise(members, e.cfg.PairwiseLimit, func(a, b string) error {
		key := [2]string{min(a, b), max(a, b)}
		if cp.claimed[key] {
			return nil
		}
		repair := false
		_, aDropped := slices.BinarySearch(cp.hubMembers, a)
		_, bDropped := slices.BinarySearch(cp.hubMembers, b)
		if !aDropped && !bDropped {
			if owner, owned := e.mg.G.EdgeAttrs(a, b, graph.Coexisting); owned {
				if owner["report"] <= rep.URL {
					return nil
				}
				// First-writer ownership repair: this report's URL sorts
				// below the current owner's, so one-shot joining would have
				// written its attrs. Replace exactly this edge.
				repair = true
				cp.repairs++
			}
		}
		cp.claimed[key] = true
		cp.pairs = append(cp.pairs, coexPair{a: a, b: b, attrs: attrs, repair: repair})
		return nil
	})
}

// presentMembers returns the sorted, deduplicated canonical node IDs of the
// report's named packages present in the merged dataset. Every dataset
// entry has its canonical node once the batch commits, so this is the set
// the graph will hold; it does not read the graph, which applyNodes writes
// while the co-existing plan runs.
func (e *Engine) presentMembers(rep *reports.Report) []string {
	members := make([]string, 0, len(rep.Packages))
	for _, coord := range rep.Packages {
		id := NodeID(coord)
		if _, ok := e.mg.Dataset.EntryByKey(id); ok {
			members = append(members, id)
		}
	}
	sort.Strings(members)
	return slices.Compact(members)
}

// indexReportForPackage inserts rep into the package's ReportsByPackage list
// at its URL-sorted position, if absent — keeping every list in global URL
// order whatever order reports and packages arrive in. The insert builds a
// fresh slice instead of shifting in place: published views (Engine.View)
// share these lists, so their backing arrays must never be rewritten.
func (e *Engine) indexReportForPackage(id string, rep *reports.Report) {
	lst := e.mg.ReportsByPackage(id)
	i := sort.Search(len(lst), func(i int) bool { return lst[i].URL >= rep.URL })
	if i < len(lst) && lst[i].URL == rep.URL {
		return
	}
	e.mg.reportsByPkg.Set(id, slices.Concat(lst[:i], []*reports.Report{rep}, lst[i:]))
}

// reportWithURL returns the report of the URL-sorted corpus reps with the
// given URL, or nil.
func reportWithURL(reps []*reports.Report, url string) *reports.Report {
	i := sort.Search(len(reps), func(i int) bool { return reps[i].URL >= url })
	if i < len(reps) && reps[i].URL == url {
		return reps[i]
	}
	return nil
}

// reportContentEqual compares the fields the join and analyses consume,
// detecting re-crawled documents whose content changed.
func reportContentEqual(a, b *reports.Report) bool {
	return a.Title == b.Title && a.Body == b.Body &&
		slices.Equal(a.Packages, b.Packages) &&
		slices.Equal(a.IoCs.IPs, b.IoCs.IPs) &&
		slices.Equal(a.IoCs.URLs, b.IoCs.URLs) &&
		slices.Equal(a.IoCs.PowerShell, b.IoCs.PowerShell)
}

func sortReportsByURL(reps []*reports.Report) {
	sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
}

// mergeReportCorpus merges late arrivals into the URL-sorted corpus with one
// backwards in-place merge and appends the in-order tail — O(corpus + fresh)
// only when late reports exist, O(tail) in the steady state, replacing the
// former whole-corpus re-sort on every report-bearing batch.
func mergeReportCorpus(corpus, late, tail []*reports.Report) []*reports.Report {
	if len(late) > 0 {
		old := corpus
		corpus = append(corpus, late...)
		i, j := len(old)-1, len(late)-1
		for k := len(corpus) - 1; j >= 0; k-- {
			if i >= 0 && old[i].URL > late[j].URL {
				corpus[k] = old[i]
				i--
			} else {
				corpus[k] = late[j]
				j--
			}
		}
	}
	return append(corpus, tail...)
}

package analysis

import (
	"slices"
	"sort"

	"malgraph/internal/codegen"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/stats"
)

// SubgraphStatsFor reproduces Tables VI, VII and IX: per big-3 ecosystem,
// the number of subgraphs over the given edge type, total member packages,
// average and largest sizes.
func SubgraphStatsFor(mg *core.MalGraph, t graph.EdgeType) []SubgraphStats {
	subs := mg.PackageSubgraphs(t, 2)
	perEco := make(map[ecosys.Ecosystem]*SubgraphStats)
	for _, members := range subs {
		entry, ok := mg.EntryByNodeID(members[0])
		if !ok {
			continue
		}
		eco := entry.Coord.Ecosystem
		st, ok := perEco[eco]
		if !ok {
			st = &SubgraphStats{Eco: eco}
			perEco[eco] = st
		}
		st.SubgraphNum++
		st.PkgNum += len(members)
		if len(members) > st.LargestSize {
			st.LargestSize = len(members)
		}
	}
	var out []SubgraphStats
	for _, eco := range ecosys.Big3() {
		st, ok := perEco[eco]
		if !ok {
			out = append(out, SubgraphStats{Eco: eco})
			continue
		}
		st.AvgSize = float64(st.PkgNum) / float64(st.SubgraphNum)
		out = append(out, *st)
	}
	return out
}

// subgraphEntries resolves subgraph members to dataset entries sorted by
// registry release time (the order social-engineering operations replay in).
func subgraphEntries(mg *core.MalGraph, members []string) []*collect.Entry {
	entries := make([]*collect.Entry, 0, len(members))
	for _, id := range members {
		if e, ok := mg.EntryByNodeID(id); ok {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].ReleasedAt.Equal(entries[j].ReleasedAt) {
			return entries[i].ReleasedAt.Before(entries[j].ReleasedAt)
		}
		return entries[i].Coord.Key() < entries[j].Coord.Key()
	})
	return entries
}

// Operations reproduces Fig. 9 (similar subgraphs) and Fig. 12 (co-existing
// subgraphs): replay each subgraph's releases in time order, classify each
// consecutive diff with the Table II operation vocabulary, and aggregate.
// Transitions where either artifact is missing contribute only the CN/CV
// decision (names and versions survive takedown; code does not).
//
// Subgraphs are counted in parallel and their integer counts summed in
// subgraph order. Within one subgraph each member artifact's diff facts
// (codegen.DiffFacts) are taken once and every transition compares two of
// them.
func Operations(mg *core.MalGraph, t graph.EdgeType) OpsDist {
	subs := mg.PackageSubgraphs(t, 2)
	var c opsCount
	for _, sc := range parallel.Map(len(subs), func(i int) opsCount {
		return subgraphOps(subgraphEntries(mg, subs[i]))
	}) {
		c.add(sc)
	}
	dist := OpsDist{Transitions: c.transitions}
	if c.nameVersion > 0 {
		dist.CN = float64(c.cn) / float64(c.nameVersion)
		dist.CV = 1 - dist.CN
	}
	// CD/CDep/CC can only be observed on transitions with both artifacts
	// present — the same restriction the paper's diff faces.
	if c.inspectable > 0 {
		dist.CD = float64(c.cd) / float64(c.inspectable)
		dist.CDep = float64(c.cdep) / float64(c.inspectable)
		dist.CC = float64(c.cc) / float64(c.inspectable)
	}
	if c.cc > 0 {
		dist.AvgChangedLines = float64(c.changedLines) / float64(c.cc)
	}
	return dist
}

// opsCount is one subgraph's share of an OpsDist, in whole counts.
type opsCount struct {
	transitions int
	nameVersion int // transitions that change the name or the version
	cn          int
	inspectable int // transitions where both artifacts are available
	cd, cdep    int
	cc          int
	// changedLines sums ChangedLines over the CC transitions.
	changedLines int
}

func (c *opsCount) add(o opsCount) {
	c.transitions += o.transitions
	c.nameVersion += o.nameVersion
	c.cn += o.cn
	c.inspectable += o.inspectable
	c.cd += o.cd
	c.cdep += o.cdep
	c.cc += o.cc
	c.changedLines += o.changedLines
}

// subgraphOps counts the operations of one subgraph's time-ordered
// releases.
func subgraphOps(entries []*collect.Entry) opsCount {
	var c opsCount
	facts := make([]*codegen.DiffFacts, len(entries))
	for i, e := range entries {
		if e.Artifact != nil {
			facts[i] = codegen.NewDiffFacts(e.Artifact)
		}
	}
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		c.transitions++
		if prev.Coord.Name != cur.Coord.Name {
			c.cn++
			c.nameVersion++
		} else if prev.Coord.Version != cur.Coord.Version {
			c.nameVersion++
		}
		if facts[i-1] == nil || facts[i] == nil {
			continue // names/versions survive takedown; code does not
		}
		c.inspectable++
		for _, op := range facts[i-1].Ops(facts[i]) {
			switch op {
			case codegen.OpDescription:
				c.cd++
			case codegen.OpDependency:
				c.cdep++
			case codegen.OpCode:
				c.cc++
				c.changedLines += facts[i-1].ChangedLines(facts[i])
			}
		}
	}
	return c
}

// ActivePeriods reproduces Figs. 10, 11 and 13: the CDF of T_active =
// t_last − t_first per subgraph of the given edge type, in days.
func ActivePeriods(mg *core.MalGraph, t graph.EdgeType) ActiveStats {
	var samples []float64
	for _, members := range mg.PackageSubgraphs(t, 2) {
		entries := subgraphEntries(mg, members)
		if len(entries) < 2 {
			continue
		}
		first := entries[0].ReleasedAt
		last := entries[len(entries)-1].ReleasedAt
		if first.IsZero() || last.IsZero() {
			continue
		}
		days := last.Sub(first).Hours() / 24
		samples = append(samples, days)
	}
	st := ActiveStats{CDF: stats.NewCDF(samples), Summary: stats.Summarize(samples)}
	for _, d := range samples {
		if d > 60 {
			st.Over60d++
		}
	}
	return st
}

// TopDependencyTargets reproduces Table VIII: dependency packages ranked by
// how many distinct malicious packages depend on them, grouped per ecosystem.
func TopDependencyTargets(mg *core.MalGraph, minCount int) []DepTarget {
	counts := make(map[ecosys.Ecosystem]map[string]int)
	for _, e := range mg.G.Edges(graph.Dependency) {
		entry, ok := mg.EntryByNodeID(e.To)
		if !ok {
			continue
		}
		eco := entry.Coord.Ecosystem
		if counts[eco] == nil {
			counts[eco] = make(map[string]int)
		}
		counts[eco][entry.Coord.Name]++
	}
	var out []DepTarget
	for eco, byName := range counts {
		for name, n := range byName {
			if n >= minCount {
				out = append(out, DepTarget{Eco: eco, Name: name, Count: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Eco != out[j].Eco {
			return out[i].Eco < out[j].Eco
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// DependencyReuse summarises RQ3's headline numbers: how many dependency
// cores are *repeatedly* hidden behind (reused by at least minFronts front
// packages — the paper counts 28 cores with ≥3 reuses hiding 1,354 fronts)
// and how many distinct fronts hide behind those cores.
func DependencyReuse(mg *core.MalGraph, minFronts int) (cores, fronts int) {
	if minFronts < 1 {
		minFronts = 1
	}
	inDegree := make(map[string]int)
	frontsByCore := make(map[string][]string)
	for _, e := range mg.G.Edges(graph.Dependency) {
		inDegree[e.To]++
		frontsByCore[e.To] = append(frontsByCore[e.To], e.From)
	}
	frontSet := make(map[string]bool)
	for coreID, n := range inDegree {
		if n < minFronts {
			continue
		}
		cores++
		for _, f := range frontsByCore[coreID] {
			frontSet[f] = true
		}
	}
	return cores, len(frontSet)
}

// IoCs reproduces the §V-D context accounting and Fig. 14 by *parsing report
// bodies* (the same extraction path a real pipeline runs), not by trusting
// generator ground truth. Reports are parsed in parallel; their indicators
// are merged in report order.
func IoCs(reportCorpus []*reports.Report, topN int) IoCSummary {
	// Collect every report's indicators, then sort and de-duplicate once:
	// the same union a per-report Merge builds, without re-sorting the
	// accumulated set for every report.
	var merged reports.IoCSet
	ipReportCount := make(map[string]int)
	for _, set := range parallel.Map(len(reportCorpus), func(i int) reports.IoCSet {
		return reports.ExtractIoCs(reportCorpus[i].Body)
	}) {
		merged.IPs = append(merged.IPs, set.IPs...)
		merged.URLs = append(merged.URLs, set.URLs...)
		merged.PowerShell = append(merged.PowerShell, set.PowerShell...)
		for _, ip := range set.IPs {
			ipReportCount[ip]++
		}
	}
	for _, s := range []*[]string{&merged.IPs, &merged.URLs, &merged.PowerShell} {
		slices.Sort(*s)
		*s = slices.Compact(*s)
	}
	summary := IoCSummary{
		UniqueURLs: len(merged.URLs),
		UniqueIPs:  len(merged.IPs),
		PowerShell: len(merged.PowerShell),
	}
	for _, dc := range reports.TopDomains(merged.URLs, topN) {
		summary.TopDomains = append(summary.TopDomains, DomainCount{Domain: dc.Domain, Count: dc.Count})
	}
	for _, n := range ipReportCount {
		if n > summary.MaxSameIPReports {
			summary.MaxSameIPReports = n
		}
	}
	return summary
}

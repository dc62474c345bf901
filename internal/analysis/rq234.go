package analysis

import (
	"slices"
	"sort"

	"malgraph/internal/codegen"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
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
func Operations(mg *core.MalGraph, t graph.EdgeType) OpsDist {
	var dist OpsDist
	var nameVersionOps, cn int
	var inspectable int // transitions where both artifacts are available
	var changedLineSum, ccWithLines int
	for _, members := range mg.PackageSubgraphs(t, 2) {
		entries := subgraphEntries(mg, members)
		for i := 1; i < len(entries); i++ {
			prev, cur := entries[i-1], entries[i]
			dist.Transitions++
			if prev.Coord.Name != cur.Coord.Name {
				cn++
				nameVersionOps++
			} else if prev.Coord.Version != cur.Coord.Version {
				nameVersionOps++
			}
			if prev.Artifact == nil || cur.Artifact == nil {
				continue // names/versions survive takedown; code does not
			}
			inspectable++
			ops := codegen.DiffOps(prev.Artifact, cur.Artifact)
			for _, op := range ops {
				switch op {
				case codegen.OpDescription:
					dist.CD++
				case codegen.OpDependency:
					dist.CDep++
				case codegen.OpCode:
					dist.CC++
					lines := codegen.ChangedLines(prev.Artifact.MergedSource(), cur.Artifact.MergedSource())
					changedLineSum += lines
					ccWithLines++
				}
			}
		}
	}
	if nameVersionOps > 0 {
		dist.CN = float64(cn) / float64(nameVersionOps)
		dist.CV = 1 - dist.CN
	}
	// CD/CDep/CC can only be observed on transitions with both artifacts
	// present — the same restriction the paper's diff faces.
	if inspectable > 0 {
		dist.CD /= float64(inspectable)
		dist.CDep /= float64(inspectable)
		dist.CC /= float64(inspectable)
	}
	if ccWithLines > 0 {
		dist.AvgChangedLines = float64(changedLineSum) / float64(ccWithLines)
	}
	return dist
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
// generator ground truth.
func IoCs(reportCorpus []*reports.Report, topN int) IoCSummary {
	// Collect every report's indicators, then sort and de-duplicate once:
	// the same union a per-report Merge builds, without re-sorting the
	// accumulated set for every report.
	var merged reports.IoCSet
	ipReportCount := make(map[string]int)
	for _, r := range reportCorpus {
		set := reports.ExtractIoCs(r.Body)
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

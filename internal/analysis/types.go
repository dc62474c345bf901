// Package analysis computes every quantitative result of §V and §VI from a
// built MALGRAPH: the overlap matrix (Table IV), missing rates (Table V),
// occurrence CDF (Fig. 6), release timeline (Fig. 7), missing-cause breakdown
// (Fig. 8), similar/dependency/co-existing subgraph statistics (Tables
// VI/VII/IX), operation distributions (Figs. 9/12), active-period CDFs
// (Figs. 10/11/13), dependency-target ranking (Table VIII), and IoC
// statistics (Fig. 14).
package analysis

import (
	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
	"malgraph/internal/stats"
)

// SourceSizeRow is one Table I row.
type SourceSizeRow struct {
	Source      sources.ID
	Unavailable int
	Available   int
}

// MissingRateRow is one Table V row.
type MissingRateRow struct {
	Source   sources.ID
	Missing  int
	Total    int
	LocalMR  float64
	GlobalMR float64
}

// OverlapMatrix is Table IV: Matrix[i][j] counts packages reported by both
// IDs[i] and IDs[j] (diagonal holds source sizes).
type OverlapMatrix struct {
	IDs    []sources.ID
	Matrix [][]int
}

// At returns the overlap count between two sources.
func (m OverlapMatrix) At(a, b sources.ID) int {
	ai, bi := -1, -1
	for i, id := range m.IDs {
		if id == a {
			ai = i
		}
		if id == b {
			bi = i
		}
	}
	if ai < 0 || bi < 0 {
		return 0
	}
	return m.Matrix[ai][bi]
}

// TimelineBucket is one Fig. 7 bar: all vs missing package counts per year.
type TimelineBucket struct {
	Year    int
	All     int
	Missing int
}

// MissingCauses is the Fig. 8 breakdown of why packages were unrecoverable.
type MissingCauses struct {
	EarlyRelease     int // released before the mirrors' sync epochs
	ShortPersistence int // lifetime shorter than every mirror's sync gap
	Other            int
}

// SubgraphStats is one row of Tables VI, VII or IX.
type SubgraphStats struct {
	Eco         ecosys.Ecosystem
	PkgNum      int
	SubgraphNum int
	AvgSize     float64
	LargestSize int
}

// OpsDist is the Fig. 9 / Fig. 12 operation distribution. CN and CV are
// fractions of name-or-version transitions (they sum to 1); CD, CDep and CC
// are fractions of all transitions.
type OpsDist struct {
	CN, CV, CD, CDep, CC float64
	Transitions          int
	AvgChangedLines      float64 // mean source lines changed on CC transitions
}

// ActiveStats bundles a subgraph-type's active-period distribution.
type ActiveStats struct {
	CDF     *stats.CDF // samples in days
	Summary stats.Summary
	Over60d int // groups with active period > 60 days (paper: 53)
}

// DepTarget is one Table VIII row component: a dependency package and how
// many other malicious packages hide behind it.
type DepTarget struct {
	Eco   ecosys.Ecosystem
	Name  string
	Count int
}

// IoCSummary is the §V-D context accounting plus Fig. 14.
type IoCSummary struct {
	UniqueURLs       int
	UniqueIPs        int
	PowerShell       int
	TopDomains       []DomainCount
	MaxSameIPReports int // the same IP observed across reports (paper: 23)
}

// DomainCount mirrors reports.DomainCount for the public API.
type DomainCount struct {
	Domain string
	Count  int
}

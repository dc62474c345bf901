package analysis

import (
	"maps"
	"slices"
	"time"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/sources"
	"malgraph/internal/stats"
)

// SourceSizes reproduces Table I: per-source available/unavailable counts,
// read from the dataset's per-source accounting (collect.Result.SourceStats).
func SourceSizes(perSource map[sources.ID]collect.SourceStats) []SourceSizeRow {
	rows := make([]SourceSizeRow, 0, len(sources.Catalog()))
	for _, info := range sources.Catalog() {
		st := perSource[info.ID]
		rows = append(rows, SourceSizeRow{
			Source:      info.ID,
			Unavailable: st.LocalUnavailable,
			Available:   st.Total - st.LocalUnavailable,
		})
	}
	return rows
}

// Overlap reproduces Table IV from the merged dataset's per-package source
// sets (equivalently: MALGRAPH's duplicated edges).
func Overlap(ds *collect.Result) OverlapMatrix {
	ids := make([]sources.ID, 0, len(sources.Catalog()))
	index := make(map[sources.ID]int)
	for _, info := range sources.Catalog() {
		index[info.ID] = len(ids)
		ids = append(ids, info.ID)
	}
	matrix := make([][]int, len(ids))
	for i := range matrix {
		matrix[i] = make([]int, len(ids))
	}
	for _, e := range ds.Entries {
		for i := 0; i < len(e.Sources); i++ {
			matrix[index[e.Sources[i]]][index[e.Sources[i]]]++
			for j := i + 1; j < len(e.Sources); j++ {
				a, b := index[e.Sources[i]], index[e.Sources[j]]
				matrix[a][b]++
				matrix[b][a]++
			}
		}
	}
	return OverlapMatrix{IDs: ids, Matrix: matrix}
}

// OccurrenceCDF reproduces Fig. 6: per big-3 ecosystem, the CDF of how many
// sources reported each package.
func OccurrenceCDF(ds *collect.Result) map[ecosys.Ecosystem]*stats.CDF {
	samples := make(map[ecosys.Ecosystem][]float64)
	for _, e := range ds.Entries {
		eco := e.Coord.Ecosystem
		samples[eco] = append(samples[eco], float64(e.OccurrenceCount()))
	}
	out := make(map[ecosys.Ecosystem]*stats.CDF, 3)
	for _, eco := range ecosys.Big3() {
		out[eco] = stats.NewCDF(samples[eco])
	}
	return out
}

// MissingRates reproduces Table V's per-source rows from the dataset's
// per-source accounting (collect.Result.SourceStats); the dataset-wide rate
// is collect.Result.TotalMR.
func MissingRates(perSource map[sources.ID]collect.SourceStats) []MissingRateRow {
	rows := make([]MissingRateRow, 0, len(sources.Catalog()))
	for _, info := range sources.Catalog() {
		st := perSource[info.ID]
		rows = append(rows, MissingRateRow{
			Source:   info.ID,
			Missing:  st.LocalUnavailable,
			Total:    st.Total,
			LocalMR:  st.LocalMR(),
			GlobalMR: st.GlobalMR(),
		})
	}
	return rows
}

// Timeline reproduces Fig. 7: yearly release counts of all vs missing
// packages (release metadata queried from the registries, so missing
// packages are included).
func Timeline(ds *collect.Result) []TimelineBucket {
	byYear := make(map[int]*TimelineBucket)
	for _, e := range ds.Entries {
		if e.ReleasedAt.IsZero() {
			continue
		}
		y := e.ReleasedAt.Year()
		b, ok := byYear[y]
		if !ok {
			b = &TimelineBucket{Year: y}
			byYear[y] = b
		}
		b.All++
		if e.Availability == collect.Missing {
			b.Missing++
		}
	}
	out := make([]TimelineBucket, 0, len(byYear))
	for _, y := range slices.Sorted(maps.Keys(byYear)) {
		out = append(out, *byYear[y])
	}
	return out
}

// ClassifyMissing reproduces Fig. 8: for each missing package decide whether
// it was released before the mirrors could have seen it (cause 1) or lived
// shorter than the tightest mirror sync gap (cause 2).
func ClassifyMissing(ds *collect.Result, fleet *registry.Fleet) MissingCauses {
	var out MissingCauses
	epochByEco := make(map[ecosys.Ecosystem]time.Time)
	periodByEco := make(map[ecosys.Ecosystem]time.Duration)
	for _, eco := range ecosys.All() {
		var earliest time.Time
		var shortest time.Duration
		for _, m := range fleet.Mirrors(eco) {
			epoch, period := mirrorSchedule(m)
			if earliest.IsZero() || epoch.Before(earliest) {
				earliest = epoch
			}
			if shortest == 0 || period < shortest {
				shortest = period
			}
		}
		epochByEco[eco] = earliest
		periodByEco[eco] = shortest
	}
	for _, e := range ds.MissingEntries() {
		epoch := epochByEco[e.Coord.Ecosystem]
		period := periodByEco[e.Coord.Ecosystem]
		switch {
		case epoch.IsZero() || e.ReleasedAt.IsZero():
			out.Other++
		case e.ReleasedAt.Before(epoch):
			out.EarlyRelease++
		case !e.RemovedAt.IsZero() && e.RemovedAt.Sub(e.ReleasedAt) < period:
			out.ShortPersistence++
		default:
			out.Other++
		}
	}
	return out
}

// mirrorSchedule recovers a mirror's (epoch, period) by probing LastSync —
// keeping the analysis independent of mirror internals.
func mirrorSchedule(m *registry.Mirror) (time.Time, time.Duration) {
	far := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	last, ok := m.LastSync(far)
	if !ok {
		return time.Time{}, 0
	}
	prev, ok := m.LastSync(last.Add(-time.Second))
	if !ok {
		return last, 0
	}
	period := last.Sub(prev)
	// Binary-search the earliest instant with a sync at or before it: that
	// instant is the epoch (LastSync(t) succeeds iff t ≥ epoch).
	lo := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)
	hi := last
	for hi.Sub(lo) > time.Second {
		mid := lo.Add(hi.Sub(lo) / 2)
		if _, ok := m.LastSync(mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, period
}

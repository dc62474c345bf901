package world

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"malgraph/internal/attacker"
	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
	"malgraph/internal/xrand"
)

// assignSources distributes every released package across the ten Table I
// sources: a quota-bounded primary source (whose identity depends on the
// campaign's persistence class, which is what shapes Table V's per-source
// missing rates), plus secondary observers drawn from Table IV's pairwise
// overlap ratios (which is what shapes the overlap matrix and Fig. 6's
// occurrence CDF).
func (w *World) assignSources(rng *xrand.RNG) error {
	quota := w.Config.sourceQuota()
	// Rescale quotas so their sum matches the actual package count (chain
	// bridges and statistical floors perturb the raw totals slightly);
	// proportions — which is what Table I is about — are preserved.
	quotaSum := 0
	for _, q := range quota {
		quotaSum += q
	}
	if total := len(w.Records); quotaSum > 0 && total != quotaSum {
		ids := slices.Sorted(maps.Keys(quota))
		assigned := 0
		for _, id := range ids {
			scaled := quota[id] * total / quotaSum
			quota[id] = scaled
			assigned += scaled
		}
		for i := 0; assigned < total; i++ { // distribute rounding remainder
			quota[ids[i%len(ids)]]++
			assigned++
		}
	}

	type affinity struct {
		id     sources.ID
		weight float64
	}
	affinities := map[persistClass][]affinity{
		classFlood: {{sources.Phylum, 1}},
		classSimilar: {
			{sources.Backstabber, 0.38}, {sources.MalPyPI, 0.30}, {sources.Maloss, 0.10},
			{sources.DataDog, 0.12}, {sources.Tianwen, 0.06}, {sources.Snyk, 0.03},
			{sources.Phylum, 0.01},
		},
		classDep: {
			{sources.Backstabber, 0.30}, {sources.MalPyPI, 0.22}, {sources.DataDog, 0.10},
			{sources.Tianwen, 0.18}, {sources.Snyk, 0.10}, {sources.Phylum, 0.06},
			{sources.Blogs, 0.04},
		},
		classUltra: {
			{sources.Socket, 0.50}, {sources.Phylum, 0.24}, {sources.Snyk, 0.24},
			{sources.Tianwen, 0.02},
		},
		classEarly: {
			{sources.GitHubAdvisory, 0.42}, {sources.Blogs, 0.12},
			{sources.Backstabber, 0.30}, {sources.Maloss, 0.16},
		},
		classStd: {
			{sources.Tianwen, 0.26}, {sources.Snyk, 0.12}, {sources.Backstabber, 0.22},
			{sources.Maloss, 0.08}, {sources.DataDog, 0.10}, {sources.Phylum, 0.08},
			{sources.MalPyPI, 0.10}, {sources.GitHubAdvisory, 0.004},
			{sources.Blogs, 0.002}, {sources.Socket, 0.01},
		},
	}

	eligible := func(id sources.ID, eco ecosys.Ecosystem) bool {
		if id == sources.MalPyPI {
			return eco == ecosys.PyPI // Mal-PyPI covers only PyPI (§II-B)
		}
		return true
	}

	pickPrimary := func(class persistClass, eco ecosys.Ecosystem) sources.ID {
		cands := affinities[class]
		weights := make([]float64, len(cands))
		hasAny := false
		for i, a := range cands {
			if quota[a.id] > 0 && eligible(a.id, eco) {
				weights[i] = a.weight
				hasAny = true
			}
		}
		if hasAny {
			return cands[rng.WeightedIndex(weights)].id
		}
		// Affinity sources exhausted: fall back proportionally to remaining
		// quota anywhere.
		ids := slices.Sorted(maps.Keys(quota))
		fallback := make([]float64, len(ids))
		hasAny = false
		for i, id := range ids {
			if quota[id] > 0 && eligible(id, eco) {
				fallback[i] = float64(quota[id])
				hasAny = true
			}
		}
		if !hasAny {
			return sources.Tianwen // quotas exhausted by rounding; overflow here
		}
		return ids[rng.WeightedIndex(fallback)]
	}

	// Deterministic package order: campaigns in creation order.
	for _, c := range w.Campaigns {
		class := w.classes[c.ID]
		if class == 0 {
			return fmt.Errorf("world: campaign %s has no persistence class", c.ID)
		}
		for _, rec := range c.Packages {
			eco := rec.Artifact.Coord.Ecosystem
			primary := pickPrimary(class, eco)
			quota[primary]--
			w.Primary[rec.Artifact.Coord.Key()] = primary
			w.observe(primary, rec)
			for _, sec := range w.secondaries(rng, primary, eco, class) {
				w.observe(sec, rec)
			}
		}
	}
	return nil
}

// observe records a sighting with the source; observation time approximates
// the detection instant (just before takedown, Fig. 1 phase 3).
func (w *World) observe(id sources.ID, rec *attacker.PackageRecord) {
	src := w.Sources.Get(id)
	at := rec.RemovedAt.Add(-1 * time.Hour)
	if at.Before(rec.ReleasedAt) {
		at = rec.ReleasedAt
	}
	src.Observe(rec.Artifact.Coord, at, rec.Artifact)
}

// secondaries draws additional observers for a package given its primary
// source. The probabilities are Table IV pair counts divided by the primary's
// Table I size; each pair rule lives on exactly one side so the matrix is
// generated once. At most three secondaries can fire, matching Fig. 6's
// observation that no package occurs more than four times.
func (w *World) secondaries(rng *xrand.RNG, primary sources.ID, eco ecosys.Ecosystem, class persistClass) []sources.ID {
	var out []sources.ID
	add := func(id sources.ID, p float64) {
		if len(out) >= 3 {
			return
		}
		if id == sources.MalPyPI && eco != ecosys.PyPI {
			return
		}
		if rng.Bool(p) {
			out = append(out, id)
		}
	}
	switch primary {
	case sources.MalPyPI:
		add(sources.Backstabber, 0.99) // B.K integrates Mal-PyPI (2,897/2,915)
		add(sources.Phylum, 0.10)
	case sources.Maloss:
		add(sources.Backstabber, 0.30)
		add(sources.MalPyPI, 0.16)
		add(sources.Tianwen, 0.056)
		add(sources.GitHubAdvisory, 0.005)
		add(sources.Socket, 0.0025)
		add(sources.Blogs, 0.005)
	case sources.Phylum:
		if class == classFlood {
			// Academia archived only a sliver of the 5,943-package flood
			// before takedown (the paper recovers ~12%; its largest similar
			// cluster stays the 829-package wallet campaign, so the flood
			// remnant must stay below that).
			add(sources.Backstabber, 0.06)
			add(sources.MalPyPI, 0.05)
		} else if eco == ecosys.PyPI {
			add(sources.Backstabber, 0.132)
			add(sources.MalPyPI, 0.126)
		} else {
			add(sources.Backstabber, 0.04)
		}
		add(sources.Tianwen, 0.037)
		add(sources.Snyk, 0.0023)
		add(sources.DataDog, 0.002)
	case sources.Tianwen:
		add(sources.Snyk, 0.034)
		add(sources.Backstabber, 0.011)
		add(sources.Socket, 0.0006)
	case sources.Snyk:
		add(sources.Backstabber, 0.002)
	case sources.Socket:
		add(sources.Backstabber, 0.0015)
	case sources.Blogs:
		add(sources.Backstabber, 0.58) // 36/62: blogs' finds end up archived
		add(sources.Maloss, 0.097)
		add(sources.GitHubAdvisory, 0.016)
		add(sources.DataDog, 0.016)
	case sources.DataDog:
		add(sources.Backstabber, 0.005)
		add(sources.MalPyPI, 0.005)
		add(sources.Phylum, 0.011)
	case sources.GitHubAdvisory:
		add(sources.Maloss, 0.034)
	}
	return out
}

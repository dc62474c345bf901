package world

import (
	"fmt"
	"time"

	"malgraph/internal/attacker"
	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
	"malgraph/internal/webworld"
	"malgraph/internal/xrand"
)

// World is the fully built simulated universe.
type World struct {
	Config    Config
	Fleet     *registry.Fleet
	Sources   *sources.Set
	Campaigns []*attacker.Campaign
	Web       *webworld.Web
	Reports   []*reports.Report // ground-truth report corpus
	SeedURLs  []string          // crawl seeds (§III-D step 1)

	// Records indexes every released package by coordinate key.
	Records map[string]*attacker.PackageRecord
	// Primary maps coordinate key → the source that "owns" the package in
	// Table I accounting.
	Primary map[string]sources.ID

	classes classMap // campaign ID → persistence class
}

// Build constructs a world from the configuration. The result is a pure
// function of cfg.
func Build(cfg Config) (*World, error) {
	cfg = cfg.WithDefaults()
	w := &World{
		Config:  cfg,
		Fleet:   registry.NewFleet(),
		Sources: sources.NewSet(),
		Web:     webworld.New(),
		Records: make(map[string]*attacker.PackageRecord),
		Primary: make(map[string]sources.ID),
	}
	rng := xrand.New(cfg.Seed)
	w.buildFleet(rng.Derive("fleet"))

	sim := attacker.NewSimulator(rng.Derive("attacker"), w.Fleet)
	if err := w.buildCampaigns(sim, rng.Derive("campaigns")); err != nil {
		return nil, fmt.Errorf("world campaigns: %w", err)
	}
	if err := sim.Render(); err != nil {
		return nil, fmt.Errorf("world campaigns: %w", err)
	}
	for _, c := range w.Campaigns {
		for _, rec := range c.Packages {
			w.Records[rec.Artifact.Coord.Key()] = rec
		}
	}
	if err := w.assignSources(rng.Derive("sources")); err != nil {
		return nil, fmt.Errorf("world sources: %w", err)
	}
	if err := w.buildWeb(rng.Derive("web")); err != nil {
		return nil, fmt.Errorf("world web: %w", err)
	}
	return w, nil
}

// buildFleet creates root registries for all ten ecosystems and the mirror
// fleets of §II-B (5 NPM, 12 PyPI, 6 RubyGems mirrors). Mirror epochs and
// periods are fixed so availability is reproducible.
func (w *World) buildFleet(rng *xrand.RNG) {
	for _, eco := range ecosys.All() {
		w.Fleet.AddRoot(registry.New(eco.String()+"-root", eco))
	}
	day := 24 * time.Hour
	date := func(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

	type mirrorSpec struct {
		name   string
		mode   registry.SyncMode
		epoch  time.Time
		period time.Duration
	}
	specs := map[ecosys.Ecosystem][]mirrorSpec{
		ecosys.PyPI: {
			{"pypi-tuna", registry.SyncAccumulate, date(2018, 3, 1), 2 * day},
			{"pypi-aliyun", registry.SyncAccumulate, date(2016, 6, 1), 7 * day},
			{"pypi-douban", registry.SyncAccumulate, date(2017, 1, 15), 30 * day},
			{"pypi-ustc", registry.SyncSnapshot, date(2015, 5, 1), 1 * day},
			{"pypi-tencent", registry.SyncSnapshot, date(2016, 2, 1), 2 * day},
			{"pypi-huawei", registry.SyncSnapshot, date(2017, 8, 1), 3 * day},
			{"pypi-bfsu", registry.SyncSnapshot, date(2018, 1, 1), 4 * day},
			{"pypi-163", registry.SyncSnapshot, date(2018, 9, 1), 5 * day},
			{"pypi-sustech", registry.SyncSnapshot, date(2019, 3, 1), 7 * day},
			{"pypi-rstudio", registry.SyncSnapshot, date(2019, 6, 1), 10 * day},
			{"pypi-unpad", registry.SyncSnapshot, date(2019, 9, 1), 12 * day},
			{"pypi-kakao", registry.SyncSnapshot, date(2019, 11, 1), 14 * day},
		},
		ecosys.NPM: {
			{"npm-taobao", registry.SyncAccumulate, date(2017, 5, 1), 3 * day},
			{"npm-cnpm", registry.SyncAccumulate, date(2018, 2, 1), 14 * day},
			{"npm-aliyun", registry.SyncSnapshot, date(2016, 4, 1), 1 * day},
			{"npm-ustc", registry.SyncSnapshot, date(2017, 10, 1), 5 * day},
			{"npm-huawei", registry.SyncSnapshot, date(2018, 7, 1), 7 * day},
		},
		ecosys.RubyGems: {
			{"gem-taobao", registry.SyncAccumulate, date(2016, 9, 1), 5 * day},
			{"gem-tuna", registry.SyncAccumulate, date(2018, 8, 1), 21 * day},
			{"gem-hust", registry.SyncSnapshot, date(2016, 1, 1), 2 * day},
			{"gem-aliyun", registry.SyncSnapshot, date(2017, 3, 1), 6 * day},
			{"gem-sysu", registry.SyncSnapshot, date(2018, 5, 1), 9 * day},
			{"gem-sdut", registry.SyncSnapshot, date(2019, 1, 1), 12 * day},
		},
	}
	for _, eco := range ecosys.All() {
		root, _ := w.Fleet.Root(eco)
		for _, s := range specs[eco] {
			m, err := registry.NewMirror(s.name, root, s.mode, s.epoch, s.period)
			if err != nil {
				// Specs are compile-time constants; a bad one is a
				// programming error worth failing loudly during Build.
				panic(fmt.Sprintf("world: bad mirror spec %s: %v", s.name, err))
			}
			w.Fleet.AddMirror(m)
		}
	}
	_ = rng
}

// Record returns the ground-truth record for a coordinate.
func (w *World) Record(coord ecosys.Coord) (*attacker.PackageRecord, bool) {
	rec, ok := w.Records[coord.Key()]
	return rec, ok
}

// TotalPackages returns the number of released packages.
func (w *World) TotalPackages() int { return len(w.Records) }

// Package world builds the complete simulated universe the pipelines run
// against: root registries and their mirror fleets, every attack campaign,
// the ten online sources with calibrated coverage and overlap, and the web of
// security reports. A World is a pure function of Config (seed + scale), so
// every experiment in the repository is reproducible bit-for-bit.
package world

import (
	"time"

	"malgraph/internal/attacker"
	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
)

// Config parameterises world generation. All corpus-size targets follow the
// paper's tables and are multiplied by Scale.
type Config struct {
	Seed  uint64
	Scale float64 // 1.0 reproduces paper-scale sizes (≈24k packages)

	// CollectAt is the instant the collection pipeline runs ("today" in the
	// paper's timeline); mirrors and availability are evaluated here.
	CollectAt time.Time
}

// SmallScale returns a fast configuration for integration tests (≈1.2k
// packages).
func SmallScale() Config { return Config{Seed: 20240404, Scale: 0.05, CollectAt: defaultCollectAt()} }

func defaultCollectAt() time.Time { return time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC) }

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.CollectAt.IsZero() {
		c.CollectAt = defaultCollectAt()
	}
	if c.Seed == 0 {
		c.Seed = 20240404
	}
	return c
}

// n scales a paper-count to this world's size (minimum 1 when the paper
// count is positive).
func (c Config) n(paperCount int) int {
	if paperCount <= 0 {
		return 0
	}
	v := int(float64(paperCount)*c.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// nAtLeast scales a paper-count but keeps a statistical floor so that
// down-scaled test worlds retain enough groups for distribution-shape
// assertions; never exceeds the paper count.
func (c Config) nAtLeast(paperCount, floor int) int {
	v := c.n(paperCount)
	if v < floor {
		v = floor
	}
	if v > paperCount {
		v = paperCount
	}
	return v
}

// similarPlan captures Table VI per-ecosystem targets.
type similarPlan struct {
	eco     ecosys.Ecosystem
	groups  int // number of similar-code campaigns
	total   int // total packages across campaigns
	largest int // size of the single largest campaign
}

func (c Config) similarPlans() []similarPlan {
	return []similarPlan{
		{eco: ecosys.NPM, groups: c.n(157), total: c.n(2994), largest: c.n(827)},
		{eco: ecosys.PyPI, groups: c.n(295), total: c.n(4365), largest: c.n(829)},
		{eco: ecosys.RubyGems, groups: c.n(37), total: c.n(83), largest: c.n(6)},
	}
}

// depPlan captures Table VII/VIII per-ecosystem targets. The named specs are
// Table VIII's most-reused dependency packages; the small groups fill the
// remaining subgraph counts.
type depPlan struct {
	eco         ecosys.Ecosystem
	majorSpecs  []attacker.DepSpec // the one large connected subgraph
	bridges     int
	smallGroups int // additional subgraphs with 1 core and few fronts
}

func (c Config) depPlans() []depPlan {
	scaleSpecs := func(specs []attacker.DepSpec) []attacker.DepSpec {
		out := make([]attacker.DepSpec, 0, len(specs))
		for _, s := range specs {
			out = append(out, attacker.DepSpec{Name: s.Name, Fronts: c.n(s.Fronts)})
		}
		return out
	}
	return []depPlan{
		{
			eco: ecosys.NPM,
			majorSpecs: scaleSpecs([]attacker.DepSpec{
				{Name: "util", Fronts: 88}, {Name: "icons", Fronts: 39},
				{Name: "common", Fronts: 4}, {Name: "object-color", Fronts: 3},
				{Name: "settings", Fronts: 3},
			}),
			bridges:     c.n(5),
			smallGroups: c.nAtLeast(21, 4),
		},
		{
			eco: ecosys.PyPI,
			majorSpecs: scaleSpecs([]attacker.DepSpec{
				{Name: "urllib", Fronts: 448}, {Name: "request", Fronts: 124},
				{Name: "urllib3", Fronts: 92}, {Name: "timedelta", Fronts: 75},
				{Name: "values", Fronts: 18}, {Name: "public", Fronts: 14},
				{Name: "pystyle", Fronts: 12}, {Name: "urlsplit", Fronts: 12},
				{Name: "coloram", Fronts: 11}, {Name: "pwd", Fronts: 11},
				{Name: "connection", Fronts: 10}, {Name: "pkgutil", Fronts: 10},
				{Name: "twyne", Fronts: 8}, {Name: "runcmd", Fronts: 8},
				{Name: "docutils", Fronts: 6}, {Name: "seccache", Fronts: 6},
				{Name: "openvc", Fronts: 5}, {Name: "faq", Fronts: 4},
				{Name: "setupcfg", Fronts: 4}, {Name: "exit", Fronts: 4},
				{Name: "load", Fronts: 3}, {Name: "jsfiddle", Fronts: 3},
			}),
			bridges:     c.n(12),
			smallGroups: c.nAtLeast(12, 4),
		},
		{
			eco: ecosys.RubyGems,
			majorSpecs: scaleSpecs([]attacker.DepSpec{
				{Name: "rest-client", Fronts: 32},
			}),
			bridges:     0,
			smallGroups: c.nAtLeast(2, 2),
		},
	}
}

// floodSize is the Feb-2023 PyPI registration-flood size (§III-D / Fig. 7).
func (c Config) floodSize() int { return c.n(5943) }

// Singleton counts per persistence class (chosen so total corpus size lands
// at the Table I total of 24,356 after campaigns).
func (c Config) singletonCounts() (ultra, early, std int) {
	return c.n(1300), c.n(420), c.n(7897)
}

// sourceQuota returns Table I per-source size targets.
func (c Config) sourceQuota() map[sources.ID]int {
	return map[sources.ID]int{
		sources.Backstabber:    c.n(5937),
		sources.Maloss:         c.n(1223),
		sources.MalPyPI:        c.n(2915),
		sources.GitHubAdvisory: c.n(179),
		sources.Snyk:           c.n(1540),
		sources.Tianwen:        c.n(3151),
		sources.DataDog:        c.n(1387),
		sources.Phylum:         c.n(7299),
		sources.Socket:         c.n(664),
		sources.Blogs:          c.n(62),
	}
}

// Report-corpus targets (Table III, Table IX, Fig. 14).
type reportPlan struct {
	totalReports int
	// reported campaign-group counts per ecosystem (Table IX subgraphs)
	npmGroups, pypiGroups, rubyGroups int
	// IoC pool targets (§V-D)
	urlCount, ipCount, powershellCount int
	// Fig. 14 top domains with URL counts
	domainWeights []domainWeight
	// Table III website counts per category
	sites []sitePlan
}

type domainWeight struct {
	domain string
	count  int
}

type sitePlan struct {
	category     int // reports.Category value
	siteCount    int
	reportTarget int
}

func (c Config) reportPlan() reportPlan {
	return reportPlan{
		totalReports:    c.n(1366),
		npmGroups:       c.n(33),
		pypiGroups:      c.n(40),
		rubyGroups:      c.n(9),
		urlCount:        c.n(1449),
		ipCount:         c.n(234),
		powershellCount: min(4, c.n(4)),
		domainWeights: []domainWeight{
			{domain: "bananasquad.ru", count: c.n(453)},
			{domain: "kekwltd.ru", count: c.n(302)},
			{domain: "discord.com", count: c.n(155)},
			{domain: "paste.bingner.com", count: c.n(151)},
			{domain: "python-release.com", count: c.n(37)},
			{domain: "cdn.discordapp.com", count: c.n(29)},
			{domain: "api.telegram.org", count: c.n(26)},
			{domain: "raw.githubusercontent.com", count: c.n(13)},
			{domain: "transfer.sh", count: c.n(7)},
			{domain: "dl.dropbox.com", count: c.n(6)},
		},
		sites: []sitePlan{
			{category: 1, siteCount: 16, reportTarget: c.n(516)}, // technical community
			{category: 2, siteCount: 15, reportTarget: c.n(545)}, // commercial
			{category: 3, siteCount: 4, reportTarget: c.n(143)},  // news
			{category: 4, siteCount: 3, reportTarget: c.n(95)},   // individual
			{category: 5, siteCount: 1, reportTarget: c.n(24)},   // official
			{category: 6, siteCount: 29, reportTarget: c.n(43)},  // other
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package analysis

// Hand-fixture unit tests for the analysis functions, complementing the
// end-to-end pipeline assertions in analysis_test.go.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/reports"
	"malgraph/internal/sources"
)

var u0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func entry(name string, eco ecosys.Ecosystem, avail collect.Availability, srcs []sources.ID, released time.Time) *collect.Entry {
	return &collect.Entry{
		Coord:        ecosys.Coord{Ecosystem: eco, Name: name, Version: "1.0.0"},
		Availability: avail,
		Sources:      srcs,
		ReleasedAt:   released,
		RemovedAt:    released.Add(24 * time.Hour),
	}
}

func fixtureResult() *collect.Result {
	return &collect.Result{
		Entries: []*collect.Entry{
			entry("a", ecosys.PyPI, collect.FromSource, []sources.ID{sources.Backstabber, sources.MalPyPI}, u0),
			entry("b", ecosys.PyPI, collect.Missing, []sources.ID{sources.Snyk}, u0.AddDate(1, 0, 0)),
			entry("c", ecosys.NPM, collect.FromMirror, []sources.ID{sources.Tianwen, sources.Phylum, sources.Backstabber}, u0.AddDate(0, 6, 0)),
			entry("d", ecosys.RubyGems, collect.Missing, []sources.ID{sources.Socket}, u0.AddDate(2, 1, 0)),
		},
	}
}

// TestFixtureSourceStats: the fixture's entries carry no recorded
// accounting, so SourceStats sums each source's Total and counts every
// Missing entry against the sources that reported it.
func TestFixtureSourceStats(t *testing.T) {
	want := map[sources.ID]collect.SourceStats{
		sources.Backstabber: {Total: 2},
		sources.MalPyPI:     {Total: 1},
		sources.Snyk:        {Total: 1, LocalUnavailable: 1, GlobalMissing: 1},
		sources.Tianwen:     {Total: 1},
		sources.Phylum:      {Total: 1},
		sources.Socket:      {Total: 1, LocalUnavailable: 1, GlobalMissing: 1},
	}
	if got := fixtureResult().SourceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SourceStats = %+v, want %+v", got, want)
	}
}

func TestOverlapFixture(t *testing.T) {
	m := Overlap(fixtureResult())
	if got := m.At(sources.Backstabber, sources.MalPyPI); got != 1 {
		t.Fatalf("B.K–M.D = %d", got)
	}
	if got := m.At(sources.Tianwen, sources.Phylum); got != 1 {
		t.Fatalf("T.–P. = %d", got)
	}
	if got := m.At(sources.Backstabber, sources.Backstabber); got != 2 {
		t.Fatalf("diagonal = %d", got)
	}
	if got := m.At(sources.Snyk, sources.Socket); got != 0 {
		t.Fatalf("unrelated pair = %d", got)
	}
	if got := m.At(sources.ID(99), sources.Snyk); got != 0 {
		t.Fatalf("unknown source = %d", got)
	}
}

func TestSourceSizesFixture(t *testing.T) {
	rows := SourceSizes(fixtureResult().SourceStats())
	byID := map[sources.ID]SourceSizeRow{}
	for _, r := range rows {
		byID[r.Source] = r
	}
	if byID[sources.Snyk].Unavailable != 1 || byID[sources.Snyk].Available != 0 {
		t.Fatalf("snyk row = %+v", byID[sources.Snyk])
	}
	if byID[sources.Backstabber].Available != 2 {
		t.Fatalf("bk row = %+v", byID[sources.Backstabber])
	}
}

func TestOccurrenceCDFFixture(t *testing.T) {
	cdfs := OccurrenceCDF(fixtureResult())
	// PyPI: occurrences 2 and 1.
	if got := cdfs[ecosys.PyPI].At(1); got != 0.5 {
		t.Fatalf("PyPI P(occ<=1) = %v", got)
	}
	if got := cdfs[ecosys.NPM].Quantile(1); got != 3 {
		t.Fatalf("NPM max occ = %v", got)
	}
}

func TestTimelineFixture(t *testing.T) {
	buckets := Timeline(fixtureResult())
	if len(buckets) != 3 { // 2022, 2023, 2024
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Year != 2022 || buckets[0].All != 2 || buckets[0].Missing != 0 {
		t.Fatalf("2022 bucket = %+v", buckets[0])
	}
	if buckets[1].Year != 2023 || buckets[1].Missing != 1 {
		t.Fatalf("2023 bucket = %+v", buckets[1])
	}
}

func TestMonthlyTimelineFixture(t *testing.T) {
	monthly := MonthlyTimeline(fixtureResult(), 2022)
	if len(monthly) != 12 {
		t.Fatalf("months = %d", len(monthly))
	}
	if monthly[0].All != 1 { // January 2022: entry "a"
		t.Fatalf("jan = %+v", monthly[0])
	}
	if monthly[6].All != 1 { // July 2022: entry "c"
		t.Fatalf("jul = %+v", monthly[6])
	}
}

func TestClassifyMissingFixture(t *testing.T) {
	fleet := registry.NewFleet()
	root := registry.New("pypi", ecosys.PyPI)
	fleet.AddRoot(root)
	// One accumulate mirror: epoch 2023-01-01, period 10 days.
	m, err := registry.NewMirror("m", root, registry.SyncAccumulate,
		time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC), 10*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fleet.AddMirror(m)

	early := entry("early", ecosys.PyPI, collect.Missing, []sources.ID{sources.Snyk},
		time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)) // before epoch
	short := entry("short", ecosys.PyPI, collect.Missing, []sources.ID{sources.Snyk},
		time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)) // lived 1d < 10d period
	ds := &collect.Result{Entries: []*collect.Entry{early, short}}

	causes := ClassifyMissing(ds, fleet)
	if causes.EarlyRelease != 1 {
		t.Fatalf("early = %d", causes.EarlyRelease)
	}
	if causes.ShortPersistence != 1 {
		t.Fatalf("short = %d", causes.ShortPersistence)
	}
}

func TestIoCsFixture(t *testing.T) {
	body1 := "IoC list:\n  URL: hxxps://bananasquad[.]ru/a\n  URL: https://bananasquad.ru/b\n  IP: 46.226.1.2\n"
	body2 := "more:\n  URL: https://kekwltd.ru/x\n  IP: 46.226.1.2\n  CMD: powershell -nop -w hidden\n"
	corpus := []*reports.Report{
		{URL: "u1", Body: body1},
		{URL: "u2", Body: body2},
	}
	s := IoCs(corpus, 5)
	if s.UniqueURLs != 3 {
		t.Fatalf("urls = %d", s.UniqueURLs)
	}
	if s.UniqueIPs != 1 {
		t.Fatalf("ips = %d", s.UniqueIPs)
	}
	if s.PowerShell != 1 {
		t.Fatalf("powershell = %d", s.PowerShell)
	}
	if s.MaxSameIPReports != 2 {
		t.Fatalf("max same IP = %d", s.MaxSameIPReports)
	}
	if s.TopDomains[0].Domain != "bananasquad.ru" || s.TopDomains[0].Count != 2 {
		t.Fatalf("top domain = %+v", s.TopDomains[0])
	}
}

// TestIoCsMatchesPerReportMerge: the one-pass union equals folding every
// report's set through IoCSet.Merge, on corpora whose per-report sets
// overlap, repeat and arrive out of order.
func TestIoCsMatchesPerReportMerge(t *testing.T) {
	bodies := map[string]string{
		"a":     "URL: https://bananasquad.ru/a\n  IP: 46.226.1.2\n  CMD: powershell -nop -w hidden\n",
		"b":     "URL: hxxps://bananasquad[.]ru/a\n  URL: https://kekwltd.ru/x\n  IP: 46.226.1.2\n  IP: 10.0.0.9\n",
		"c":     "URL: https://kekwltd.ru/x\n  URL: https://zeta.example/z\n  CMD: powershell -enc AAAA\n",
		"empty": "nothing to see here",
	}
	for _, tc := range []struct {
		name  string
		order []string
	}{
		{"none", nil},
		{"one", []string{"a"}},
		{"overlap", []string{"a", "b", "c"}},
		{"reversed", []string{"c", "b", "a"}},
		{"repeats", []string{"b", "empty", "b", "a", "c", "a"}},
		{"only-empty", []string{"empty", "empty"}},
	} {
		var corpus []*reports.Report
		var want reports.IoCSet
		for i, key := range tc.order {
			corpus = append(corpus, &reports.Report{URL: fmt.Sprintf("u%d", i), Body: bodies[key]})
			want = want.Merge(reports.ExtractIoCs(bodies[key]))
		}
		got := IoCs(corpus, 10)
		if got.UniqueURLs != len(want.URLs) || got.UniqueIPs != len(want.IPs) || got.PowerShell != len(want.PowerShell) {
			t.Errorf("%s: counts urls/ips/ps = %d/%d/%d, want %d/%d/%d", tc.name,
				got.UniqueURLs, got.UniqueIPs, got.PowerShell, len(want.URLs), len(want.IPs), len(want.PowerShell))
		}
		var wantTop []DomainCount
		for _, dc := range reports.TopDomains(want.URLs, 10) {
			wantTop = append(wantTop, DomainCount{Domain: dc.Domain, Count: dc.Count})
		}
		if !reflect.DeepEqual(got.TopDomains, wantTop) {
			t.Errorf("%s: top domains %+v, want %+v", tc.name, got.TopDomains, wantTop)
		}
	}
}

func TestMissingRatesFixture(t *testing.T) {
	ds := fixtureResult()
	rows, total := MissingRates(ds.SourceStats()), ds.TotalMR()
	if total != 0.5 {
		t.Fatalf("total MR = %v", total)
	}
	for _, r := range rows {
		if r.Source == sources.Socket && r.LocalMR != 1 {
			t.Fatalf("socket local MR = %v", r.LocalMR)
		}
		if r.Source == sources.Backstabber && r.LocalMR != 0 {
			t.Fatalf("bk local MR = %v", r.LocalMR)
		}
	}
}

// monthBucket is one month of MonthlyTimeline: all vs missing package
// counts released in it.
type monthBucket struct {
	Month   time.Month
	All     int
	Missing int
}

// MonthlyTimeline buckets one year by month (the Fig. 7 Feb-2023 flood peak).
func MonthlyTimeline(ds *collect.Result, year int) []monthBucket {
	buckets := make([]monthBucket, 12)
	for i := range buckets {
		buckets[i] = monthBucket{Month: time.Month(i + 1)}
	}
	for _, e := range ds.Entries {
		if e.ReleasedAt.Year() != year {
			continue
		}
		b := &buckets[int(e.ReleasedAt.Month())-1]
		b.All++
		if e.Availability == collect.Missing {
			b.Missing++
		}
	}
	return buckets
}

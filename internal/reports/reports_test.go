package reports

import (
	"net/url"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/webworld"
	"malgraph/internal/xrand"
)

func samplePkgs() []ecosys.Coord {
	return []ecosys.Coord{
		{Ecosystem: ecosys.PyPI, Name: "colorslib", Version: "4.6.11"},
		{Ecosystem: ecosys.PyPI, Name: "httpslib", Version: "4.6.9"},
		{Ecosystem: ecosys.PyPI, Name: "libhttps", Version: "4.6.12"},
	}
}

func sampleIoCs() IoCSet {
	return IoCSet{
		IPs:        []string{"46.226.1.2", "51.178.3.4"},
		URLs:       []string{"https://bananasquad.ru/grab", "http://kekwltd.ru/x/payload.exe"},
		PowerShell: []string{"powershell -WindowStyle Hidden -EncodedCommand SQBFAFgA"},
	}
}

func TestRenderAndExtractRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	published := time.Date(2023, 1, 16, 9, 30, 0, 0, time.UTC)
	body := Render(rng, "Malicious Lolip0p packages on PyPI", published, ecosys.PyPI, samplePkgs(), sampleIoCs(), []string{"info stealing"})

	pkgs := ExtractPackages(body)
	if len(pkgs) != 3 {
		t.Fatalf("extracted %d packages, want 3: %v", len(pkgs), pkgs)
	}
	for i, want := range samplePkgs() {
		if pkgs[i] != want {
			t.Fatalf("package %d = %v, want %v", i, pkgs[i], want)
		}
	}

	iocs := ExtractIoCs(body)
	if len(iocs.IPs) != 2 {
		t.Fatalf("IPs = %v", iocs.IPs)
	}
	if len(iocs.URLs) != 2 {
		t.Fatalf("URLs = %v", iocs.URLs)
	}
	if len(iocs.PowerShell) != 1 {
		t.Fatalf("PowerShell = %v", iocs.PowerShell)
	}
	for _, ip := range iocs.IPs {
		if strings.Contains(ip, "[") {
			t.Fatalf("IP not refanged: %s", ip)
		}
	}
	for _, u := range iocs.URLs {
		if strings.Contains(u, "hxxp") || strings.Contains(u, "[.]") {
			t.Fatalf("URL not refanged: %s", u)
		}
	}

	got, ok := ExtractPublishedAt(body)
	if !ok {
		t.Fatal("rendered dateline not extracted")
	}
	if want := time.Date(2023, 1, 16, 0, 0, 0, 0, time.UTC); !got.Equal(want) {
		t.Fatalf("published = %v, want %v", got, want)
	}
}

// TestFromPageSeparatesPublishedFromFetched is the regression test for the
// publication/crawl-time conflation: a page disclosing a dateline must keep
// its published date whatever instant the crawler fetched it, and only pages
// without a dateline fall back to the crawl instant.
func TestFromPageSeparatesPublishedFromFetched(t *testing.T) {
	published := time.Date(2023, 1, 16, 0, 0, 0, 0, time.UTC)
	fetched := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	body := Render(xrand.New(1), "Malicious packages", published, ecosys.PyPI, samplePkgs(), IoCSet{}, nil)
	rep, ok := FromPage(&webworld.Page{URL: "https://s/r1", Site: "s", Title: "t", Body: body}, fetched)
	if !ok {
		t.Fatal("report page rejected")
	}
	if !rep.PublishedAt.Equal(published) {
		t.Fatalf("PublishedAt = %v, want the page's dateline %v", rep.PublishedAt, published)
	}
	if !rep.FetchedAt.Equal(fetched) {
		t.Fatalf("FetchedAt = %v, want crawl instant %v", rep.FetchedAt, fetched)
	}

	// Re-crawling the same page later must not move its publication date.
	later := fetched.AddDate(0, 3, 0)
	rep2, _ := FromPage(&webworld.Page{URL: "https://s/r1", Site: "s", Title: "t", Body: body}, later)
	if !rep2.PublishedAt.Equal(published) {
		t.Fatalf("re-crawl moved PublishedAt to %v", rep2.PublishedAt)
	}

	// No dateline: fall back to the crawl instant, recorded in both fields.
	noDate := Render(xrand.New(1), "Malicious packages", time.Time{}, ecosys.PyPI, samplePkgs(), IoCSet{}, nil)
	if _, ok := ExtractPublishedAt(noDate); ok {
		t.Fatal("dateline extracted from a page without one")
	}
	rep3, _ := FromPage(&webworld.Page{URL: "https://s/r2", Site: "s", Title: "t", Body: noDate}, fetched)
	if !rep3.PublishedAt.Equal(fetched) || !rep3.FetchedAt.Equal(fetched) {
		t.Fatalf("fallback: published %v fetched %v, want both %v", rep3.PublishedAt, rep3.FetchedAt, fetched)
	}
}

func TestDefangRefangRoundTrip(t *testing.T) {
	cases := []string{
		"https://bananasquad.ru/grab",
		"http://1.2.3.4/payload",
		"46.226.1.2",
	}
	for _, in := range cases {
		d := Defang(in)
		if d == in {
			t.Fatalf("Defang(%q) unchanged", in)
		}
		if got := Refang(d); got != in {
			t.Fatalf("Refang(Defang(%q)) = %q", in, got)
		}
	}
}

func TestDefangProperty(t *testing.T) {
	rng := xrand.New(2)
	f := func(_ uint8) bool {
		ioc := "https://example" + string(rune('a'+rng.Intn(26))) + ".ru/path"
		return Refang(Defang(ioc)) == ioc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractIoCsRejectsInvalidIPs(t *testing.T) {
	body := "IP: 999.1.1.1 and version 1.2.3.4 of something, IP: 10.0.0[.]5"
	set := ExtractIoCs(body)
	for _, ip := range set.IPs {
		if ip == "999.1.1.1" {
			t.Fatal("invalid IP accepted")
		}
	}
	found := false
	for _, ip := range set.IPs {
		if ip == "10.0.0.5" {
			found = true
		}
	}
	if !found {
		t.Fatalf("defanged IP not recovered: %v", set.IPs)
	}
}

func TestExtractPackagesIgnoresUnknownEcosystem(t *testing.T) {
	body := "We discovered the package `x` version `1` in the FooBar registry.\n"
	if got := ExtractPackages(body); len(got) != 0 {
		t.Fatalf("unknown ecosystem accepted: %v", got)
	}
}

func TestIoCSetMerge(t *testing.T) {
	a := IoCSet{IPs: []string{"1.1.1.1"}, URLs: []string{"https://a/x"}}
	b := IoCSet{IPs: []string{"1.1.1.1", "2.2.2.2"}, PowerShell: []string{"powershell -enc x"}}
	m := a.Merge(b)
	if len(m.IPs) != 2 || len(m.URLs) != 1 || len(m.PowerShell) != 1 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestDomain(t *testing.T) {
	cases := map[string]string{
		"https://bananasquad.ru/grab/x":   "bananasquad.ru",
		"http://cdn.discordapp.com/a?b=c": "cdn.discordapp.com",
		"transfer.sh/abc":                 "transfer.sh",
	}
	for in, want := range cases {
		if got := Domain(in); got != want {
			t.Errorf("Domain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTopDomains(t *testing.T) {
	urls := []string{
		"https://bananasquad.ru/1", "https://bananasquad.ru/2", "https://bananasquad.ru/3",
		"https://kekwltd.ru/1", "https://kekwltd.ru/2",
		"https://transfer.sh/1",
	}
	top := TopDomains(urls, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Domain != "bananasquad.ru" || top[0].Count != 3 {
		t.Fatalf("top[0] = %v", top[0])
	}
	if top[1].Domain != "kekwltd.ru" || top[1].Count != 2 {
		t.Fatalf("top[1] = %v", top[1])
	}
}

func TestTopDomainsDeterministicTieBreak(t *testing.T) {
	urls := []string{"https://b.ru/1", "https://a.ru/1"}
	top := TopDomains(urls, 0)
	if top[0].Domain != "a.ru" {
		t.Fatalf("tie break not lexicographic: %v", top)
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryCommercial.String() != "Commercial org." {
		t.Fatal("category name wrong")
	}
	if len(categoryNames) != 6 {
		t.Fatal("Table III has 6 categories")
	}
}

// The regexps ExtractIoCs' scanners implement, kept as their oracle.
var (
	ipRe  = regexp.MustCompile(`\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})[.\[\]]{1,3}(\d{1,3})\b`)
	urlRe = regexp.MustCompile(`h(?:xx|tt)ps?://[^\s"'<>\)]+`)
	psRe  = regexp.MustCompile(`(?i)powershell\s+-[^\n]+`)
)

// referenceExtractIoCs is ExtractIoCs over the regexps.
func referenceExtractIoCs(body string) IoCSet {
	var set IoCSet
	for _, m := range ipRe.FindAllString(body, -1) {
		if ip := Refang(m); validIP(ip) {
			set.IPs = append(set.IPs, ip)
		}
	}
	for _, m := range urlRe.FindAllString(body, -1) {
		u := strings.TrimRight(Refang(m), ".,;")
		if _, err := url.Parse(u); err == nil {
			set.URLs = append(set.URLs, u)
		}
	}
	for _, m := range psRe.FindAllString(body, -1) {
		set.PowerShell = append(set.PowerShell, strings.TrimSpace(m))
	}
	set.IPs = dedupe(set.IPs)
	set.URLs = dedupe(set.URLs)
	set.PowerShell = dedupe(set.PowerShell)
	return set
}

// scanAll collects a scanner's matches.
func scanAll(scan func(string, func(string)), s string) []string {
	var out []string
	scan(s, func(m string) { out = append(out, m) })
	return out
}

// checkIoCOracle fails unless every scanner reports exactly its regexp's
// matches in body and ExtractIoCs agrees with the regexp extraction.
func checkIoCOracle(tb testing.TB, body string) {
	tb.Helper()
	for _, p := range []struct {
		name string
		scan func(string, func(string))
		re   *regexp.Regexp
	}{
		{"ip", scanIPs, ipRe},
		{"url", scanURLs, urlRe},
		{"powershell", scanPowerShell, psRe},
	} {
		if got, want := scanAll(p.scan, body), p.re.FindAllString(body, -1); !slices.Equal(got, want) {
			tb.Fatalf("%s scanner on %q:\n got  %q\n want %q", p.name, body, got, want)
		}
	}
	if got, want := ExtractIoCs(body), referenceExtractIoCs(body); !reflect.DeepEqual(got, want) {
		tb.Fatalf("ExtractIoCs(%q) = %+v, reference %+v", body, got, want)
	}
}

// CheckIoCOracle exports checkIoCOracle to the whole-world test, which
// lives in package reports_test because the world imports this package.
var CheckIoCOracle = checkIoCOracle

func TestIoCScannersMatchRegexps(t *testing.T) {
	rng := xrand.New(3)
	bodies := []string{
		"",
		Render(rng, "t", time.Time{}, ecosys.PyPI, samplePkgs(), sampleIoCs(), nil),
		"IP: 999.1.1.1 and version 1.2.3.4 of something, IP: 10.0.0[.]5",
		"1.2.3[.]4 1.2.3]4 1[.]2.3.4 1.2.3.4567 1.2.3.4.5 a1.2.3.4 1.2.3.4_ 1.2.3.4é é1.2.3.4",
		"1.2.3.[.]4 1.2.3....4 1.2.3[]]4 12.34.56.78:80 1234.5.6.7 1..2.3.4 255.255.255.255",
		"hxxps://evil.example/x) http://a.b/c., https://x.y/z;\"q\" http:// hxxp://\thttps://p<q> hxxpss://no",
		"httphttps://a.b https://a.bhttp://c.d http://a.b)https://c.d ftp://x https:/x hxxps[:]//x",
		"PowerShell -enc SQBFAFgA\npowerſhell -x y\nPOWERSHELL\t\n -Command z\npowershell - \npowershell -\npowershell x -y",
		"powershell  --\npowershell \n-\npowershell -\u212a\xff\npowerShell\r-w hidden",
		"\xff\xfe1.2.3.4\xff http://\xff\xfe/a powershell -\xff\x00",
	}
	for _, body := range bodies {
		checkIoCOracle(t, body)
	}
	for _, ioc := range []IoCSet{sampleIoCs(), {IPs: []string{"1.2.3.4"}, URLs: []string{"http://a.b/c.d"}}} {
		for i := 0; i < 20; i++ {
			checkIoCOracle(t, Render(rng.Derive("r"), "t", time.Time{}, ecosys.NPM, samplePkgs(), ioc, []string{"x"}))
		}
	}
}

// FuzzExtractIoCs checks the byte scanners against their regexps on
// arbitrary bodies: the same matches per pattern, the same IoC set, no
// panic. Seeds live in testdata/fuzz/FuzzExtractIoCs.
func FuzzExtractIoCs(f *testing.F) {
	f.Add("IP: 1.2.3.4\n  URL: hxxps://x[.]y/z\n  CMD: powershell -enc AAAA\n")
	f.Fuzz(func(t *testing.T, body string) {
		checkIoCOracle(t, body)
	})
}

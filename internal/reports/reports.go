// Package reports models security analysis reports — the co-existing-edge
// evidence of §III-D and the malware-context source of RQ4. A report page
// names one or more malicious packages and may disclose indicators of
// compromise (IoCs): suspicious IPs, malicious URLs/domains, and PowerShell
// commands. Rendering produces the natural-language page body a crawler
// fetches; Extract* functions perform the inverse parse, including the
// defanging conventions (hxxp, [.]) real reports use.
package reports

import (
	"fmt"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/xrand"
)

// Category classifies the publishing website (Table III).
type Category int

// Website categories of Table III.
const (
	CategoryTechnicalCommunity Category = iota + 1
	CategoryCommercial
	CategoryNews
	CategoryIndividual
	CategoryOfficial
	CategoryOther
)

var categoryNames = map[Category]string{
	CategoryTechnicalCommunity: "Technical Community",
	CategoryCommercial:         "Commercial org.",
	CategoryNews:               "News",
	CategoryIndividual:         "Individual",
	CategoryOfficial:           "Official",
	CategoryOther:              "Other",
}

// String names the category as in Table III.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// IoCSet bundles the three IoC types the paper counts (§V-D: 1,449 URLs,
// 234 IPs, 4 PowerShell commands).
type IoCSet struct {
	IPs        []string
	URLs       []string
	PowerShell []string
}

// Merge returns the union of two sets with duplicates removed.
func (s IoCSet) Merge(o IoCSet) IoCSet {
	return IoCSet{
		IPs:        dedupe(append(append([]string(nil), s.IPs...), o.IPs...)),
		URLs:       dedupe(append(append([]string(nil), s.URLs...), o.URLs...)),
		PowerShell: dedupe(append(append([]string(nil), s.PowerShell...), o.PowerShell...)),
	}
}

func dedupe(in []string) []string {
	slices.Sort(in)
	return slices.Compact(in)
}

// Report is one security analysis report.
type Report struct {
	URL      string
	Site     string
	Category Category
	Title    string
	Body     string
	Packages []ecosys.Coord // packages the report names
	IoCs     IoCSet
	// PublishedAt is when the report was published (as disclosed by the
	// page); FetchedAt is when the crawler retrieved it. The two used to be
	// conflated — FromPage stamped PublishedAt with the crawl instant, so
	// report-timeline ordering shifted with crawl scheduling.
	PublishedAt time.Time
	FetchedAt   time.Time `json:",omitzero"`
}

// Render builds the natural-language body for a report naming the given
// packages with the given IoCs. The produced text follows the structure the
// paper describes for analysis webpages: a publication dateline (when
// publishedAt is non-zero), discovery context, behaviours, package
// names/versions, and IoCs — partially defanged like real reports.
func Render(rng *xrand.RNG, title string, publishedAt time.Time, eco ecosys.Ecosystem, pkgs []ecosys.Coord, iocs IoCSet, behaviors []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	if !publishedAt.IsZero() {
		fmt.Fprintf(&b, "Published: %s\n\n", publishedAt.UTC().Format("2006-01-02"))
	}
	intro := []string{
		"Our automated scanning pipeline flagged a new wave of malicious uploads",
		"During routine monitoring of new releases we identified suspicious packages",
		"A researcher reported unusual install-time behaviour, leading us to",
	}
	fmt.Fprintf(&b, "%s in the %s registry.\n\n", xrand.Pick(rng, intro), eco)
	if len(behaviors) > 0 {
		fmt.Fprintf(&b, "Observed behaviours: %s.\n\n", strings.Join(behaviors, ", "))
	}
	for _, p := range pkgs {
		fmt.Fprintf(&b, "We discovered the package `%s` version `%s` in the %s registry.\n", p.Name, p.Version, p.Ecosystem)
	}
	if len(iocs.IPs)+len(iocs.URLs)+len(iocs.PowerShell) > 0 {
		b.WriteString("\nIndicators of Compromise:\n")
		for i, ip := range iocs.IPs {
			if i%2 == 0 {
				fmt.Fprintf(&b, "  IP: %s\n", Defang(ip))
			} else {
				fmt.Fprintf(&b, "  IP: %s\n", ip)
			}
		}
		for i, u := range iocs.URLs {
			if i%2 == 0 {
				fmt.Fprintf(&b, "  URL: %s\n", Defang(u))
			} else {
				fmt.Fprintf(&b, "  URL: %s\n", u)
			}
		}
		for _, ps := range iocs.PowerShell {
			fmt.Fprintf(&b, "  CMD: %s\n", ps)
		}
	}
	b.WriteString("\nWe notified the registry administrators and the packages have been removed.\n")
	return b.String()
}

// Defang rewrites an indicator into the publication-safe form security
// vendors use: http→hxxp and the last dot bracketed.
func Defang(indicator string) string {
	out := strings.Replace(indicator, "http", "hxxp", 1)
	if i := strings.LastIndex(out, "."); i > 0 {
		out = out[:i] + "[.]" + out[i+1:]
	}
	return out
}

// Refang reverses Defang.
func Refang(indicator string) string {
	out := strings.Replace(indicator, "hxxp", "http", 1)
	out = strings.ReplaceAll(out, "[.]", ".")
	return out
}

var (
	pkgMentionRe = regexp.MustCompile("package `([\\w.@/-]+)` version `([\\w.-]+)` in the (\\w+) registry")
	behaviorRe   = regexp.MustCompile(`Observed behaviours: ([^.\n]+)\.`)
	publishedRe  = regexp.MustCompile(`(?m)^Published: (\d{4}-\d{2}-\d{2})$`)
)

// ExtractPublishedAt parses the publication dateline out of a report body.
// ok=false when the page discloses no date (older pages, external documents);
// callers then fall back to the crawl instant.
func ExtractPublishedAt(body string) (time.Time, bool) {
	m := publishedRe.FindStringSubmatch(body)
	if m == nil {
		return time.Time{}, false
	}
	t, err := time.Parse("2006-01-02", m[1])
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// ExtractBehaviors parses the behaviour summary line out of a report body
// (§VI-B path 1: "if the malware is reported by online sources, we use the
// security report content to represent its behaviours").
func ExtractBehaviors(body string) []string {
	m := behaviorRe.FindStringSubmatch(body)
	if m == nil {
		return nil
	}
	var out []string
	for _, part := range strings.Split(m[1], ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ExtractPackages parses package mentions out of a report body.
func ExtractPackages(body string) []ecosys.Coord {
	var out []ecosys.Coord
	for _, m := range pkgMentionRe.FindAllStringSubmatch(body, -1) {
		eco := ecosystemByName(m[3])
		if eco == 0 {
			continue
		}
		out = append(out, ecosys.Coord{Ecosystem: eco, Name: m[1], Version: m[2]})
	}
	return out
}

func ecosystemByName(name string) ecosys.Ecosystem {
	for _, e := range ecosys.All() {
		if strings.EqualFold(e.String(), name) {
			return e
		}
	}
	return 0
}

// ExtractIoCs parses the IoC indicators out of a report body, refanging
// defanged forms and deduplicating. The three indicator patterns are byte
// scanners with the semantics of the regexps documented in ioc.go.
func ExtractIoCs(body string) IoCSet {
	var set IoCSet
	scanIPs(body, func(m string) {
		if ip := Refang(m); validIP(ip) {
			set.IPs = append(set.IPs, ip)
		}
	})
	scanURLs(body, func(m string) {
		u := strings.TrimRight(Refang(m), ".,;")
		if _, err := url.Parse(u); err == nil {
			set.URLs = append(set.URLs, u)
		}
	})
	scanPowerShell(body, func(m string) {
		set.PowerShell = append(set.PowerShell, strings.TrimSpace(m))
	})
	set.IPs = dedupe(set.IPs)
	set.URLs = dedupe(set.URLs)
	set.PowerShell = dedupe(set.PowerShell)
	return set
}

func validIP(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if len(p) == 0 || len(p) > 3 {
			return false
		}
		n := 0
		for _, r := range p {
			if r < '0' || r > '9' {
				return false
			}
			n = n*10 + int(r-'0')
		}
		if n > 255 {
			return false
		}
	}
	return true
}

// Domain extracts the host portion of a URL indicator ("https://x.y/z" → "x.y").
func Domain(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		// Fall back to manual slicing for scheme-less indicators.
		s := rawURL
		if i := strings.Index(s, "://"); i >= 0 {
			s = s[i+3:]
		}
		if i := strings.IndexAny(s, "/?#"); i >= 0 {
			s = s[:i]
		}
		return s
	}
	return u.Hostname()
}

// TopDomains counts URL indicators by domain and returns the top n as
// (domain, count) pairs sorted by descending count — Fig. 14.
func TopDomains(urls []string, n int) []DomainCount {
	counts := make(map[string]int)
	for _, u := range urls {
		if d := Domain(u); d != "" {
			counts[d]++
		}
	}
	out := make([]DomainCount, 0, len(counts))
	for d, c := range counts {
		out = append(out, DomainCount{Domain: d, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Domain < out[j].Domain
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// DomainCount is one Fig. 14 bar.
type DomainCount struct {
	Domain string `json:"domain"`
	Count  int    `json:"count"`
}

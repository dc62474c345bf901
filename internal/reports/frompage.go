package reports

import (
	"time"

	"malgraph/internal/parallel"
	"malgraph/internal/webworld"
)

// FromPage parses a crawled web page into a Report by extracting package
// mentions and IoCs from its body — the §III-D path from raw crawl output to
// structured report corpus. Pages naming no packages yield ok=false (they
// are not analysis reports even if topically relevant).
//
// fetchedAt is the crawl instant and is recorded as FetchedAt only.
// PublishedAt comes from the page's publication dateline when it discloses
// one; pages without a dateline fall back to the crawl instant (the best
// available bound), but never the other way around — publication time and
// crawl time are distinct, and conflating them made report-timeline ordering
// a function of crawl scheduling.
func FromPage(p *webworld.Page, fetchedAt time.Time) (*Report, bool) {
	pkgs := ExtractPackages(p.Body)
	if len(pkgs) == 0 {
		return nil, false
	}
	publishedAt, ok := ExtractPublishedAt(p.Body)
	if !ok {
		publishedAt = fetchedAt
	}
	return &Report{
		URL:         p.URL,
		Site:        p.Site,
		Title:       p.Title,
		Body:        p.Body,
		Packages:    pkgs,
		IoCs:        ExtractIoCs(p.Body),
		PublishedAt: publishedAt,
		FetchedAt:   fetchedAt,
	}, true
}

// FromPages converts a crawl result into a report corpus, dropping
// non-report pages. Pages parse in parallel; the corpus keeps page order.
func FromPages(pages []*webworld.Page, fetchedAt time.Time) []*Report {
	parsed := parallel.Map(len(pages), func(i int) *Report {
		r, _ := FromPage(pages[i], fetchedAt)
		return r
	})
	out := make([]*Report, 0, len(pages))
	for _, r := range parsed {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

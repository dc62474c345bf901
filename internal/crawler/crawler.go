// Package crawler implements the report-collection crawler of §III-D (the
// Scrapy substitute): seeded with known security sites, it fetches pages
// concurrently, expands the frontier through hyperlinks and search-engine
// queries, deduplicates, and keeps only pages that pass a relevance filter —
// the automated analogue of the paper's "manually filter out irrelevant web
// pages" step.
package crawler

import (
	"context"
	"sort"
	"strings"
	"sync"

	"malgraph/internal/webworld"
)

// Fetcher retrieves a page by URL.
type Fetcher interface {
	Fetch(url string) (*webworld.Page, error)
}

// SearchEngine finds pages by keyword query.
type SearchEngine interface {
	Search(query string, limit int) []string
}

// Config bounds a crawl.
type Config struct {
	MaxPages     int // hard page-fetch budget (0 = 10,000)
	Workers      int // concurrent fetchers (0 = 4)
	SearchLimit  int // results taken per search expansion (0 = 20)
	SearchDepth  int // how many relevant pages trigger a search expansion (0 = 50)
	RelevanceMin int // minimum keyword hits for a page to be relevant (0 = 2)
}

func (c Config) withDefaults() Config {
	if c.MaxPages <= 0 {
		c.MaxPages = 10000
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SearchLimit <= 0 {
		c.SearchLimit = 20
	}
	if c.SearchDepth <= 0 {
		c.SearchDepth = 50
	}
	if c.RelevanceMin <= 0 {
		c.RelevanceMin = 2
	}
	return c
}

// RelevanceKeywords are the default signals that a page discusses OSS
// malware; a page must contain Config.RelevanceMin of them.
var RelevanceKeywords = []string{
	"malicious", "package", "registry", "supply chain", "typosquat",
	"indicator", "compromise", "payload", "exfiltrat", "backdoor", "npm",
	"pypi", "rubygems",
}

// Result is the outcome of a crawl.
type Result struct {
	Relevant []*webworld.Page // pages passing the relevance filter, URL-sorted
	Fetched  int              // total pages fetched
	Skipped  int              // fetched but filtered out
	Errors   int              // fetch failures
}

// Crawler drives a crawl over a Fetcher and SearchEngine.
type Crawler struct {
	fetcher Fetcher
	search  SearchEngine
	cfg     Config
}

// New builds a crawler.
func New(fetcher Fetcher, search SearchEngine, cfg Config) *Crawler {
	return &Crawler{fetcher: fetcher, search: search, cfg: cfg.withDefaults()}
}

// Crawl walks the web from the seed URLs. Context cancellation stops the
// crawl early with the pages collected so far.
//
// Fetches run concurrently, but their results are committed — relevance
// filter, link enqueueing, search expansion — strictly in dispatch order
// through a reorder buffer. The frontier is FIFO and only commits append
// to it, so the sequence of fetched URLs, and therefore the result, equals
// a one-worker crawl's whatever order the fetches finish in.
func (c *Crawler) Crawl(ctx context.Context, seeds []string) Result {
	type fetchOut struct {
		page *webworld.Page
		err  error
	}

	var (
		mu       sync.Mutex
		visited  = make(map[string]bool)
		frontier = make([]string, 0, len(seeds))
		relevant []*webworld.Page
		fetched  int
		skipped  int
		errCount int
		searched = make(map[string]bool)
		// done holds finished fetches by dispatch index until every
		// earlier dispatch has committed; next is the index to commit.
		done = make(map[int]fetchOut)
		next int
	)
	enqueue := func(urls ...string) {
		for _, u := range urls {
			if !visited[u] {
				visited[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	commit := func(out fetchOut) {
		if out.err != nil {
			errCount++
			return
		}
		if !c.Relevant(out.page) {
			skipped++
			return
		}
		relevant = append(relevant, out.page)
		enqueue(out.page.Links...)
		// Search expansion: use the report title to find similar
		// coverage elsewhere (§III-D step 2), bounded by SearchDepth.
		if len(relevant) <= c.cfg.SearchDepth && !searched[out.page.Title] {
			searched[out.page.Title] = true
			enqueue(c.search.Search(out.page.Title, c.cfg.SearchLimit)...)
		}
	}
	mu.Lock()
	enqueue(seeds...)
	mu.Unlock()

	sem := make(chan struct{}, c.cfg.Workers)
	var wg sync.WaitGroup

	for {
		mu.Lock()
		if len(frontier) == 0 || fetched >= c.cfg.MaxPages {
			mu.Unlock()
			wg.Wait()
			mu.Lock()
			if len(frontier) == 0 || fetched >= c.cfg.MaxPages {
				mu.Unlock()
				break
			}
			mu.Unlock()
			continue
		}
		url := frontier[0]
		frontier = frontier[1:]
		idx := fetched
		fetched++
		mu.Unlock()

		select {
		case <-ctx.Done():
			wg.Wait()
			return c.result(relevant, fetched, skipped, errCount)
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(url string, idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			page, err := c.fetcher.Fetch(url)

			mu.Lock()
			defer mu.Unlock()
			done[idx] = fetchOut{page: page, err: err}
			for {
				out, ok := done[next]
				if !ok {
					return
				}
				delete(done, next)
				next++
				commit(out)
			}
		}(url, idx)
	}
	wg.Wait()
	return c.result(relevant, fetched, skipped, errCount)
}

func (c *Crawler) result(relevant []*webworld.Page, fetched, skipped, errCount int) Result {
	sort.Slice(relevant, func(i, j int) bool { return relevant[i].URL < relevant[j].URL })
	return Result{Relevant: relevant, Fetched: fetched, Skipped: skipped, Errors: errCount}
}

// Relevant applies the keyword filter.
func (c *Crawler) Relevant(p *webworld.Page) bool {
	text := strings.ToLower(p.Title + " " + p.Body)
	hits := 0
	for _, kw := range RelevanceKeywords {
		if strings.Contains(text, kw) {
			hits++
			if hits >= c.cfg.RelevanceMin {
				return true
			}
		}
	}
	return false
}

// Package webworld simulates the public internet the paper's crawler walks
// (§III-D): websites with hyperlinked pages, a search engine, and a mix of
// security-report pages and irrelevant content. The crawler package consumes
// this world through small interfaces, so the same crawler would run against
// a real HTTP fetcher unchanged.
package webworld

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"malgraph/internal/xrand"
)

// Page is one web page.
type Page struct {
	URL      string
	Site     string
	Title    string
	Body     string
	Links    []string
	IsReport bool // ground truth: page is a security analysis report
}

// Web is an in-memory internet: pages addressable by URL plus a keyword
// search engine. Safe for concurrent reads during a crawl.
type Web struct {
	mu    sync.RWMutex
	pages map[string]*Page
	index map[string][]string // keyword -> page URLs
}

// New returns an empty web.
func New() *Web {
	return &Web{pages: make(map[string]*Page), index: make(map[string][]string)}
}

// AddPage registers a page and indexes its title words for search.
func (w *Web) AddPage(p *Page) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.pages[p.URL]; ok {
		return fmt.Errorf("webworld: duplicate url %s", p.URL)
	}
	w.pages[p.URL] = p
	for _, word := range indexWords(p.Title + " " + firstWords(p.Body, 80)) {
		w.index[word] = append(w.index[word], p.URL)
	}
	return nil
}

func firstWords(s string, n int) string {
	fields := strings.Fields(s)
	if len(fields) > n {
		fields = fields[:n]
	}
	return strings.Join(fields, " ")
}

func indexWords(s string) []string {
	fields := strings.Fields(strings.ToLower(s))
	seen := make(map[string]bool, len(fields))
	var out []string
	for _, f := range fields {
		f = strings.Trim(f, ".,:;!?()`'\"")
		if len(f) < 3 || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// Fetch returns the page at url.
func (w *Web) Fetch(url string) (*Page, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.pages[url]
	if !ok {
		return nil, fmt.Errorf("webworld: 404 %s", url)
	}
	return p, nil
}

// Search returns up to limit page URLs whose indexed words match the query
// terms, ranked by number of matching terms (the Google stand-in of §III-D
// step 2). Results are deterministic.
func (w *Web) Search(query string, limit int) []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	scores := make(map[string]int)
	for _, term := range indexWords(query) {
		for _, url := range w.index[term] {
			scores[url]++
		}
	}
	urls := make([]string, 0, len(scores))
	for u := range scores {
		urls = append(urls, u)
	}
	sort.Slice(urls, func(i, j int) bool {
		if scores[urls[i]] != scores[urls[j]] {
			return scores[urls[i]] > scores[urls[j]]
		}
		return urls[i] < urls[j]
	})
	if limit > 0 && len(urls) > limit {
		urls = urls[:limit]
	}
	return urls
}

// PageCount returns the number of registered pages.
func (w *Web) PageCount() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.pages)
}

// NoisePage fabricates an irrelevant page (tutorials, release notes, memes)
// that a crawl must learn to skip.
func NoisePage(rng *xrand.RNG, site string, n int) *Page {
	titles := []string{
		"Ten tips for faster builds", "Release notes for version %d",
		"How we migrated our monolith", "Understanding garbage collection",
		"A gentle introduction to containers", "Conference recap %d",
	}
	bodies := []string{
		"This tutorial walks through project setup and dependency pinning for productive development.",
		"Today we announce improvements to our continuous integration pipeline and caching.",
		"In this post we benchmark three frameworks and discuss ergonomics of each.",
	}
	title := xrand.Pick(rng, titles)
	if strings.Contains(title, "%d") {
		title = fmt.Sprintf(title, n)
	}
	return &Page{
		URL:   fmt.Sprintf("https://%s/blog/%04d", site, n),
		Site:  site,
		Title: title,
		Body:  xrand.Pick(rng, bodies),
	}
}

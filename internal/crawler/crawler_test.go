package crawler

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"malgraph/internal/webworld"
	"malgraph/internal/xrand"
)

const reportBody = "We found a malicious package in the PyPI registry delivering a payload with indicators of compromise."

func buildWeb(t *testing.T) *webworld.Web {
	t.Helper()
	w := webworld.New()
	add := func(p *webworld.Page) {
		t.Helper()
		if err := w.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	// Seed site with a chain of reports.
	add(&webworld.Page{
		URL: "https://vendor.example/reports/1", Site: "vendor.example",
		Title: "Malicious PyPI package steals keys", Body: reportBody, IsReport: true,
		Links: []string{"https://vendor.example/reports/2", "https://vendor.example/blog/fluff"},
	})
	add(&webworld.Page{
		URL: "https://vendor.example/reports/2", Site: "vendor.example",
		Title: "Another malicious npm package campaign", Body: reportBody, IsReport: true,
		Links: []string{"https://blogger.example/post/1"},
	})
	add(&webworld.Page{
		URL: "https://vendor.example/blog/fluff", Site: "vendor.example",
		Title: "Our holiday party", Body: "We had cake.",
	})
	// A third-party report only reachable via search.
	add(&webworld.Page{
		URL: "https://other.example/analysis/99", Site: "other.example",
		Title: "Malicious PyPI package steals tokens analysis", Body: reportBody, IsReport: true,
	})
	// Linked blogger post, relevant.
	add(&webworld.Page{
		URL: "https://blogger.example/post/1", Site: "blogger.example",
		Title: "Hunting malicious packages", Body: reportBody, IsReport: true,
	})
	// Unreachable noise.
	rng := xrand.New(3)
	for i := 0; i < 5; i++ {
		add(webworld.NoisePage(rng, "noise.example", i))
	}
	return w
}

func TestCrawlFindsLinkedAndSearchedReports(t *testing.T) {
	w := buildWeb(t)
	c := New(w, w, Config{})
	res := c.Crawl(context.Background(), []string{"https://vendor.example/reports/1"})

	got := map[string]bool{}
	for _, p := range res.Relevant {
		got[p.URL] = true
	}
	for _, want := range []string{
		"https://vendor.example/reports/1",
		"https://vendor.example/reports/2",
		"https://blogger.example/post/1",
		"https://other.example/analysis/99", // via search expansion
	} {
		if !got[want] {
			t.Fatalf("missing %s in %v", want, got)
		}
	}
	if got["https://vendor.example/blog/fluff"] {
		t.Fatal("irrelevant page not filtered")
	}
	if res.Skipped == 0 {
		t.Fatal("expected skipped pages")
	}
}

func TestCrawlDeduplicates(t *testing.T) {
	w := webworld.New()
	// Two pages linking to each other must not loop.
	if err := w.AddPage(&webworld.Page{
		URL: "a", Site: "s", Title: "malicious package report", Body: reportBody,
		IsReport: true, Links: []string{"b", "a"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPage(&webworld.Page{
		URL: "b", Site: "s", Title: "malicious package report two", Body: reportBody,
		IsReport: true, Links: []string{"a", "b"},
	}); err != nil {
		t.Fatal(err)
	}
	c := New(w, w, Config{})
	res := c.Crawl(context.Background(), []string{"a"})
	if res.Fetched > 2+20 { // pages + bounded search expansion
		t.Fatalf("fetched %d, dedup broken", res.Fetched)
	}
	if len(res.Relevant) != 2 {
		t.Fatalf("relevant = %d", len(res.Relevant))
	}
}

func TestCrawlRespectsMaxPages(t *testing.T) {
	w := webworld.New()
	for i := 0; i < 50; i++ {
		links := []string{fmt.Sprintf("p%d", i+1)}
		if err := w.AddPage(&webworld.Page{
			URL: fmt.Sprintf("p%d", i), Site: "s",
			Title: "malicious package chain", Body: reportBody, IsReport: true, Links: links,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := New(w, w, Config{MaxPages: 10, SearchDepth: 1, SearchLimit: 1})
	res := c.Crawl(context.Background(), []string{"p0"})
	if res.Fetched > 10 {
		t.Fatalf("budget exceeded: %d", res.Fetched)
	}
}

func TestCrawlHandlesFetchErrors(t *testing.T) {
	w := webworld.New()
	if err := w.AddPage(&webworld.Page{
		URL: "root", Site: "s", Title: "malicious package report", Body: reportBody,
		IsReport: true, Links: []string{"deadlink1", "deadlink2"},
	}); err != nil {
		t.Fatal(err)
	}
	c := New(w, w, Config{})
	res := c.Crawl(context.Background(), []string{"root"})
	if res.Errors != 2 {
		t.Fatalf("errors = %d, want 2", res.Errors)
	}
	if len(res.Relevant) != 1 {
		t.Fatalf("relevant = %d", len(res.Relevant))
	}
}

func TestCrawlContextCancel(t *testing.T) {
	w := buildWeb(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(w, w, Config{Workers: 1})
	done := make(chan Result, 1)
	go func() { done <- c.Crawl(ctx, []string{"https://vendor.example/reports/1"}) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("crawl did not stop on cancellation")
	}
}

func TestCrawlResultsSorted(t *testing.T) {
	w := buildWeb(t)
	c := New(w, w, Config{})
	res := c.Crawl(context.Background(), []string{"https://vendor.example/reports/1"})
	for i := 1; i < len(res.Relevant); i++ {
		if res.Relevant[i-1].URL >= res.Relevant[i].URL {
			t.Fatal("relevant pages not URL-sorted")
		}
	}
}

func TestRelevanceFilter(t *testing.T) {
	c := New(nil, nil, Config{})
	if c.Relevant(&webworld.Page{Title: "cat pictures", Body: "many cats"}) {
		t.Fatal("irrelevant page passed")
	}
	if !c.Relevant(&webworld.Page{Title: "malicious package", Body: "in the npm registry"}) {
		t.Fatal("relevant page rejected")
	}
}

// jitterFetcher delays every fetch by a pseudo-random amount derived from
// the URL and a per-run seed, so concurrent fetches finish in a different
// order on every run.
type jitterFetcher struct {
	inner Fetcher
	seed  uint64
}

func (j jitterFetcher) Fetch(url string) (*webworld.Page, error) {
	h := fnv.New64a()
	h.Write([]byte(url))
	time.Sleep(time.Duration(xrand.New(h.Sum64()^j.seed).Intn(300)) * time.Microsecond)
	return j.inner.Fetch(url)
}

// titleSearch returns, for a title, exactly the URLs registered under it.
type titleSearch map[string][]string

func (ts titleSearch) Search(query string, limit int) []string { return ts[query] }

// TestCrawlDeterministicAcrossWorkers: a hub page links to many reports,
// and each report's title finds one more report only through search, but
// only the first SearchDepth relevant pages may search. Which hidden reports
// are reached therefore depends on the order pages are committed in. A
// four-worker crawl whose fetches finish in a different order on every run
// must equal the one-worker crawl exactly: fetched, skipped and error
// counts and the relevant page set.
func TestCrawlDeterministicAcrossWorkers(t *testing.T) {
	w := webworld.New()
	search := titleSearch{}
	add := func(p *webworld.Page) {
		t.Helper()
		if err := w.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	var links []string
	for i := 0; i < 24; i++ {
		url, title := fmt.Sprintf("https://vendor.example/r/%d", i), fmt.Sprintf("Malicious package report %d", i)
		add(&webworld.Page{URL: url, Site: "vendor.example", Title: title, Body: reportBody, IsReport: true})
		hidden := fmt.Sprintf("https://other.example/a/%d", i)
		add(&webworld.Page{URL: hidden, Site: "other.example", Title: "Follow-up " + title, Body: reportBody, IsReport: true})
		search[title] = []string{hidden}
		links = append(links, url)
	}
	links = append(links, "https://vendor.example/dead")
	add(&webworld.Page{URL: "https://vendor.example/", Site: "vendor.example", Title: "Malicious package index", Body: reportBody, IsReport: true, Links: links})

	crawl := func(workers int, seed uint64) Result {
		c := New(jitterFetcher{inner: w, seed: seed}, search, Config{Workers: workers, SearchDepth: 6})
		return c.Crawl(context.Background(), []string{"https://vendor.example/"})
	}
	urls := func(r Result) []string {
		out := make([]string, len(r.Relevant))
		for i, p := range r.Relevant {
			out[i] = p.URL
		}
		return out
	}
	want := crawl(1, 0)
	if want.Errors != 1 || len(want.Relevant) != 1+24+5 {
		t.Fatalf("one-worker crawl: %d relevant, %d errors; want 30 and 1", len(want.Relevant), want.Errors)
	}
	for run := uint64(1); run <= 8; run++ {
		got := crawl(4, run)
		if got.Fetched != want.Fetched || got.Skipped != want.Skipped || got.Errors != want.Errors {
			t.Fatalf("run %d: fetched/skipped/errors = %d/%d/%d, one worker %d/%d/%d",
				run, got.Fetched, got.Skipped, got.Errors, want.Fetched, want.Skipped, want.Errors)
		}
		if !reflect.DeepEqual(urls(got), urls(want)) {
			t.Fatalf("run %d: relevant pages differ from the one-worker crawl", run)
		}
	}
}

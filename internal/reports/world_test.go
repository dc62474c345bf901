package reports_test

import (
	"context"
	"testing"

	"malgraph/internal/crawler"
	"malgraph/internal/reports"
	"malgraph/internal/world"
)

// TestExtractIoCsMatchesRegexpsOnWorld runs the IoC scanners and their
// regexps over every page body the crawler keeps from the scale-0.05 world.
func TestExtractIoCsMatchesRegexpsOnWorld(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res := crawler.New(w.Web, w.Web, crawler.Config{MaxPages: 100000}).Crawl(context.Background(), w.SeedURLs)
	if len(res.Relevant) == 0 {
		t.Fatal("crawl kept no pages")
	}
	var iocs int
	for _, p := range res.Relevant {
		reports.CheckIoCOracle(t, p.Body)
		set := reports.ExtractIoCs(p.Body)
		iocs += len(set.IPs) + len(set.URLs) + len(set.PowerShell)
	}
	if iocs == 0 {
		t.Fatal("no page discloses an IoC")
	}
	t.Logf("%d pages, %d indicators", len(res.Relevant), iocs)
}

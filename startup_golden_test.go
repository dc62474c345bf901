package malgraph

// The serve start-up builds the simulated world, collects it and crawls its
// report web in parallel, and the servebench load generator rebuilds the
// same world in its own process to check a server against it. So the
// start-up output must be a pure function of the seed, byte for byte, under
// any GOMAXPROCS. TestStartupGoldenDigest pins one SHA-256 over every stage
// NewStreamingPipeline produces.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/sources"
)

// startupGolden is the start-up digest at seed 1, scale 0.05, 200 batches.
// A change to it means the simulated world, the collection, the crawl, the
// report parse or the feed partition changed.
const startupGolden = "de96f86d6a7c17ca455775e207f05de7e3ee7f99b920fe177179ad0d41ee6cb9"

// startupDigest hashes the campaigns and their records, the root ledgers,
// the source records, the crawled pages, the collected entries and their
// per-source accounting, the parsed report corpus and the batch feed of p.
func startupDigest(t *testing.T, p *Pipeline) string {
	t.Helper()
	h := sha256.New()
	put := func(section string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("encode %s: %v", section, err)
		}
		fmt.Fprintf(h, "%s:%d:", section, len(b))
		h.Write(b)
	}
	w := p.World
	for _, c := range w.Campaigns {
		put("campaign", []any{c.ID, c.Kind, c.Eco, c.Payload, c.DepCores, len(c.Packages)})
		for _, rec := range c.Packages {
			put("record", []any{rec.CampaignID, rec.Kind, rec.CodeBaseID, rec.IsDepCore, rec.ReleasedAt, rec.RemovedAt})
			put("artifact", rec.Artifact)
		}
	}
	for _, root := range w.Fleet.Roots() {
		put("ledger", []any{root.Name(), root.Ledger()})
	}
	for _, src := range w.Sources.All() {
		put("source", src.Info())
		for _, rec := range src.Records() {
			put("observation", []any{rec.Coord, rec.ObservedAt, artifactHash(rec.Artifact)})
		}
	}
	put("crawl", []any{p.Crawl.Fetched, p.Crawl.Skipped, p.Crawl.Errors})
	for _, page := range p.Crawl.Relevant {
		put("page", page)
	}
	ds, corpus := p.Source()
	for _, e := range ds.Entries {
		put("entry", []any{e.Coord, artifactHash(e.Artifact), e.Availability, e.RecoveredFrom, e.Sources, e.ObservedAt, e.ReleasedAt, e.RemovedAt})
	}
	putPerSource(put, ds.SourceStats())
	for _, r := range corpus {
		put("report", r)
	}
	p.mu.Lock()
	feed := p.feed
	p.mu.Unlock()
	put("batches", len(feed))
	for _, b := range feed {
		keys := make([]string, len(b.Entries))
		stats := make(map[string]collect.EntryStat, len(b.Entries))
		for i, e := range b.Entries {
			keys[i] = e.Coord.Key()
			stats[keys[i]] = e.Accounting()
		}
		urls := make([]string, len(b.Reports))
		for i, r := range b.Reports {
			urls[i] = r.URL
		}
		put("batch", []any{keys, stats, urls, b.At})
		putPerSource(put, (&collect.Result{Entries: b.Entries}).SourceStats())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func artifactHash(a *ecosys.Artifact) string {
	if a == nil {
		return ""
	}
	return a.Hash()
}

// putPerSource hashes per-source accounting in source-ID order.
func putPerSource(put func(string, any), per map[sources.ID]collect.SourceStats) {
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		put("perSource", []any{id, per[sources.ID(id)]})
	}
}

func TestStartupGoldenDigest(t *testing.T) {
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		p, err := NewStreamingPipeline(context.Background(), Config{Seed: 1, Scale: 0.05}, 200)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := startupDigest(t, p); got != startupGolden {
			t.Errorf("GOMAXPROCS=%d: start-up digest %s, want %s", procs, got, startupGolden)
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"

	"malgraph"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
)

// batch is one push: a timeline slice of the observation stream and its
// proportional slice of the report corpus, pre-encoded as the HTTP bodies
// the pusher sends (so client-side encoding stays out of the timed loop).
type batch struct {
	obs     []collect.Observation
	reps    []*reports.Report
	obsBody []byte
	repBody []byte // nil when the slice holds no report
	nodeIDs []string
}

// inputs is everything a run pushes, generated in-process from the world
// seed. ref is an untouched streaming pipeline over the same world: the
// correctness reference ingests exactly the pushed inputs into it.
type inputs struct {
	cfg     malgraph.Config
	ref     *malgraph.Pipeline
	obs     []collect.Observation
	reps    []*reports.Report
	batches []batch
	shape   crawlShape
}

// crawlShape is the size of the generated report corpus. The report crawl
// fans out over 4 fetch workers and its search expansion depends on the
// order they finish, so one world can yield slightly different corpora;
// modal is the most common shape over this run's crawls of the same world
// and deviates says the pushed corpus is not it.
type crawlShape struct {
	Pages     int  `json:"pages_fetched"`
	Reports   int  `json:"reports"`
	Crawls    int  `json:"crawls"`
	ModalPage int  `json:"modal_pages_fetched"`
	ModalRep  int  `json:"modal_reports"`
	Deviates  bool `json:"deviates_from_modal"`
}

// genInputs builds the world for cfg, flattens it into the timeline-sorted
// observation stream and report corpus, and cuts both into n batches the
// way `malgraphctl push` does.
func genInputs(cfg malgraph.Config, n int) (*inputs, error) {
	p, err := malgraph.NewStreamingPipeline(context.Background(), cfg, 1)
	if err != nil {
		return nil, err
	}
	in := &inputs{cfg: cfg, ref: p}
	in.obs = collect.ObservationsFromSources(p.World.Sources)
	collect.SortObservations(in.obs)
	_, in.reps = p.Source()
	in.shape = measureShape(p, len(in.reps))
	n = min(max(n, 1), len(in.obs))
	for i := 0; i < n; i++ {
		lo, hi := i*len(in.obs)/n, (i+1)*len(in.obs)/n
		rlo, rhi := i*len(in.reps)/n, (i+1)*len(in.reps)/n
		b := batch{obs: in.obs[lo:hi], reps: in.reps[rlo:rhi]}
		if b.obsBody, err = json.Marshal(map[string]any{"observations": b.obs}); err != nil {
			return nil, fmt.Errorf("encode batch %d: %w", i, err)
		}
		if len(b.reps) > 0 {
			if b.repBody, err = json.Marshal(map[string]any{"reports": b.reps}); err != nil {
				return nil, fmt.Errorf("encode reports %d: %w", i, err)
			}
		}
		for _, o := range b.obs {
			b.nodeIDs = append(b.nodeIDs, core.NodeID(o.Coord))
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// measureShape re-crawls the world twice more and compares the pushed
// corpus with the modal shape of the three crawls. It records the crawl
// defect instead of hiding it: the run goes on with the corpus it has.
func measureShape(p *malgraph.Pipeline, reps int) crawlShape {
	type key struct{ pages, reps int }
	first := key{p.Crawl.Fetched, reps}
	count := map[key]int{first: 1}
	w := p.World
	for i := 0; i < 2; i++ {
		cr := crawler.New(w.Web, w.Web, crawler.Config{MaxPages: 200000}).Crawl(context.Background(), w.SeedURLs)
		count[key{cr.Fetched, len(reports.FromPages(cr.Relevant, w.Config.CollectAt))}]++
	}
	modal, best := first, 0
	for k, c := range count {
		if c > best || (c == best && k == first) {
			modal, best = k, c
		}
	}
	return crawlShape{
		Pages: first.pages, Reports: first.reps, Crawls: 3,
		ModalPage: modal.pages, ModalRep: modal.reps, Deviates: modal != first,
	}
}

// decoded returns the observations and reports of bs decoded from the
// exact bytes that were sent.
func decoded(bs []batch) ([]collect.Observation, []*reports.Report, error) {
	var obs []collect.Observation
	var reps []*reports.Report
	for _, b := range bs {
		var o struct {
			Observations []collect.Observation `json:"observations"`
		}
		if err := json.Unmarshal(b.obsBody, &o); err != nil {
			return nil, nil, err
		}
		obs = append(obs, o.Observations...)
		if b.repBody == nil {
			continue
		}
		var r struct {
			Reports []*reports.Report `json:"reports"`
		}
		if err := json.Unmarshal(b.repBody, &r); err != nil {
			return nil, nil, err
		}
		reps = append(reps, r.Reports...)
	}
	return obs, reps, nil
}

// referenceStats ingests exactly the pushed batches into the untouched
// reference pipeline with one AppendExternal and returns its shape in the
// /api/v1/stats vocabulary.
func (in *inputs) referenceStats(pushed []batch) (map[string]float64, error) {
	obs, reps, err := decoded(pushed)
	if err != nil {
		return nil, fmt.Errorf("decode pushed inputs: %w", err)
	}
	if _, _, err := in.ref.AppendExternal(obs, reps); err != nil {
		return nil, fmt.Errorf("reference ingest: %w", err)
	}
	st := in.ref.Stats()
	return map[string]float64{
		"entries":     float64(st.Entries),
		"available":   float64(st.Available),
		"missingRate": st.MissingRate,
		"reports":     float64(st.Reports),
		"nodes":       float64(st.Nodes),
		"edges":       float64(st.Edges),
		"duplicated":  float64(st.EdgesByType[graph.Duplicated.String()]),
		"similar":     float64(st.EdgesByType[graph.Similar.String()]),
		"dependency":  float64(st.EdgesByType[graph.Dependency.String()]),
		"coexisting":  float64(st.EdgesByType[graph.Coexisting.String()]),
	}, nil
}

// compareStats lists every reference field the served stats disagree on.
func compareStats(served statsDoc, ref map[string]float64) []string {
	var diffs []string
	for _, k := range []string{"entries", "available", "missingRate", "reports", "nodes", "edges",
		"duplicated", "similar", "dependency", "coexisting"} {
		got, ok := served[k].(float64)
		if !ok || got != ref[k] {
			diffs = append(diffs, fmt.Sprintf("%s: served %v, reference %v", k, served[k], ref[k]))
		}
	}
	return diffs
}

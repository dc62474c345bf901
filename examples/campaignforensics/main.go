// Campaign forensics: walk a dependent-hidden attack (§V-C, Fig. 5) the way
// an analyst would — start from the most-reused malicious dependency, find
// the front packages hiding behind it, show how each front references the
// core (manifest vs source import), and pull the co-existing security
// reports with their IoCs.
//
//	go run ./examples/campaignforensics
package main

import (
	"context"
	"fmt"
	"os"

	"malgraph"
	"malgraph/internal/depscan"
	"malgraph/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaignforensics:", err)
		os.Exit(1)
	}
}

func run() error {
	p, err := malgraph.BuildPipeline(context.Background(), malgraph.Config{Scale: 0.05, Seed: 7})
	if err != nil {
		return err
	}
	mg := p.Graph

	// 1. Rank hidden dependency cores by how many fronts reuse them
	//    (Table VIII).
	type target struct {
		id    string
		count int
	}
	var best target
	for _, e := range mg.G.Edges(graph.Dependency) {
		// count in-degree per target
		_ = e
	}
	for _, id := range mg.G.NodeIDs() {
		if n := mg.G.InDegree(id, graph.Dependency); n > best.count {
			best = target{id: id, count: n}
		}
	}
	if best.id == "" {
		return fmt.Errorf("no dependency-hidden attacks in this world")
	}
	core, _ := mg.EntryByNodeID(best.id)
	fmt.Printf("most-reused hidden dependency: %s (reused by %d fronts)\n", core.Coord, best.count)
	fmt.Printf("  released %s, removed %s\n\n", core.ReleasedAt.Format("2006-01-02"), core.RemovedAt.Format("2006-01-02"))

	// 2. Enumerate the fronts and how each hides the dependency.
	scanner := depscan.NewScanner()
	fmt.Println("fronts hiding behind it:")
	shown := 0
	for _, frontID := range mg.G.Neighbors(best.id, graph.Dependency) {
		front, ok := mg.EntryByNodeID(frontID)
		if !ok || front.Artifact == nil {
			continue
		}
		channel := "source-import"
		if deps, err := scanner.FromManifest(front.Artifact); err == nil {
			for _, d := range deps {
				if d == core.Coord.Name {
					channel = "manifest"
				}
			}
		}
		matches := scanner.FromSource(front.Artifact, map[string]bool{core.Coord.Name: true})
		if len(matches) > 0 && channel == "manifest" {
			channel = "manifest+source"
		}
		fmt.Printf("  %-40s via %-15s", front.Coord, channel)
		if len(matches) > 0 {
			fmt.Printf(" pattern=%s", matches[0].Pattern)
		}
		fmt.Println()
		shown++
		if shown >= 12 {
			fmt.Println("  …")
			break
		}
	}

	// 3. Show the whole dependency subgraph and its active period.
	for _, sub := range mg.PackageSubgraphs(graph.Dependency, 2) {
		in := false
		for _, id := range sub {
			if id == best.id {
				in = true
				break
			}
		}
		if !in {
			continue
		}
		fmt.Printf("\ndependency subgraph: %d packages\n", len(sub))
		break
	}

	// 4. Pull co-existing security reports and their IoCs.
	reps := mg.ReportsByPackage(best.id)
	if len(reps) == 0 {
		// Fall back to any front's reports.
		for _, frontID := range mg.G.Neighbors(best.id, graph.Dependency) {
			if rs := mg.ReportsByPackage(frontID); len(rs) > 0 {
				reps = rs
				break
			}
		}
	}
	fmt.Printf("\nsecurity reports covering the campaign: %d\n", len(reps))
	for i, rep := range reps {
		if i >= 3 {
			break
		}
		fmt.Printf("  %s\n    %q\n    IoCs: %d URLs, %d IPs\n", rep.URL, rep.Title, len(rep.IoCs.URLs), len(rep.IoCs.IPs))
		for j, u := range rep.IoCs.URLs {
			if j >= 3 {
				break
			}
			fmt.Printf("      %s\n", u)
		}
	}
	return nil
}

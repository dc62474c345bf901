package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchSpec is the part of the repository's BENCHMARK.json the harness
// must honour: every metric named there is emitted, with that unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload of the
// harness (analyst_poll too, which BENCHMARK.json leaves out as unsteady)
// at a tiny scale, untraced and traced, against a freshly built serve and
// checks the run is correct and emits exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs malgraphctl serve")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "malgraphctl")
	build := exec.Command("go", "build", "-o", bin, "./cmd/malgraphctl")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build malgraphctl: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
	}
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
		if traced {
			want = map[string]string{}
			for _, m := range spec.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		for _, name := range workloadOrder {
			rc := runCfg{bin: bin, work: t.TempDir(), seed: 7, scale: 0.02, seconds: 1, trace: traced, batches: 8}
			res, err := runWorkload(name, rc, "test")
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for metric, unit := range want {
				m, ok := res.Metrics[metric]
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", name, traced, metric)
				} else if m.Unit != unit {
					t.Errorf("%s (trace %v): metric %s unit %q, BENCHMARK.json says %q", name, traced, metric, m.Unit, unit)
				}
			}
			for metric := range res.Metrics {
				if _, ok := want[metric]; !ok {
					t.Errorf("%s (trace %v): metric %s is not in BENCHMARK.json", name, traced, metric)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which the
// driver reads, in step with the definitions the harness reports by.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "cmd/xixabench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %q / %q differs from the definition", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v differs from %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %s: bound differs or is outside (0, 0.25]", kind, g.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

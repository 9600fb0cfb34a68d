package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func m(v, q1, q3 float64) measure { return measure{Value: v, Q1: q1, Q3: q3, N: 10} }

func TestClassify(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "core.optimizer_calls", Better: "lower", Exact: true}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b measure
		want verdict
	}{
		{"within bound", lower, m(100, 99, 101), m(108, 107, 109), same},
		{"slower beyond bound", lower, m(100, 99, 101), m(112, 111, 113), worse},
		{"faster beyond bound", lower, m(100, 99, 101), m(85, 84, 86), better},
		{"throughput drop", higher, m(1000, 990, 1010), m(880, 870, 890), worse},
		{"throughput gain", higher, m(1000, 990, 1010), m(1150, 1140, 1160), better},
		{"noisy baseline", lower, m(100, 90, 105), m(130, 129, 131), unresolved},
		{"noisy candidate", lower, m(100, 99, 101), m(130, 110, 140), unresolved},
		{"equal counts", count, m(4514, 4514, 4514), m(4514, 4514, 4514), same},
		{"one more call", count, m(4514, 4514, 4514), m(4515, 4515, 4515), worse},
		{"fewer calls", count, m(4514, 4514, 4514), m(4000, 4000, 4000), better},
	} {
		if got := classify(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(p50, q1, q3 float64, calls float64, failed int64) *set {
		return &set{Workloads: map[string]*result{
			"point-tuned": {Attempted: 1000, Failed: failed, Metrics: map[string]measure{"p50_us": m(p50, q1, q3)}},
			"advise": {Attempted: 10, Metrics: map[string]measure{"p50_us": m(300000, 299000, 301000)},
				Layers: map[string]measure{"core.optimizer_calls": m(calls, calls, calls), "core.new_ms": m(100, 100, 100)}},
		}}
	}
	dir := t.TempDir()
	write := func(name string, s *set) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(70, 69, 71, 4514, 0))

	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", mk(72, 71, 73, 4514, 0))); code != 0 {
		t.Errorf("sets within the bounds: exit %d\n%s", code, out.String())
	}
	if s := out.String(); strings.Contains(s, "worse\n") || !strings.Contains(s, "0 worse, 0 unresolved") {
		t.Errorf("unexpected report:\n%s", s)
	}

	out.Reset()
	if code := compareFiles(&out, base, write("slow.json", mk(95, 94, 96, 4514, 0))); code != 1 {
		t.Errorf("a 36%% slower p50 must exit 1, got %d\n%s", code, out.String())
	}

	out.Reset()
	if code := compareFiles(&out, base, write("calls.json", mk(70, 69, 71, 4600, 0))); code != 1 {
		t.Errorf("more optimizer calls must exit 1, got %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "core.optimizer_calls") || strings.Contains(out.String(), "core.new_ms") {
		t.Errorf("only exact per-layer metrics are compared:\n%s", out.String())
	}

	out.Reset()
	if code := compareFiles(&out, base, write("failed.json", mk(70, 69, 71, 4514, 3))); code != 1 {
		t.Errorf("a larger failed share must exit 1, got %d\n%s", code, out.String())
	}

	out.Reset()
	if code := compareFiles(&out, base, write("noisy.json", mk(95, 70, 110, 4514, 0))); code != 0 {
		t.Errorf("an unresolved metric is not a regression: exit %d", code)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out.String())
	}
}

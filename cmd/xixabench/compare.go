package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict classifies one (workload, metric) pair of two sets.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the runs' own spread is wider than the bound
)

// classify compares measurement b against a under a metric's direction
// and bound. A metric whose quartile spread within either run exceeds
// the bound cannot carry a verdict: it is unresolved, not unchanged.
// Exact metrics are counts compared for equality.
func classify(d metricDef, a, b measure) verdict {
	gain := b.Value - a.Value // positive = b better
	if d.Better == "lower" {
		gain = -gain
	}
	if d.Exact {
		switch {
		case gain == 0:
			return same
		case gain > 0:
			return better
		}
		return worse
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return unresolved
	}
	if a.Value == 0 {
		if b.Value == 0 {
			return same
		}
		return unresolved
	}
	switch rel := gain / math.Abs(a.Value); {
	case rel < -d.Bound:
		return worse
	case rel > d.Bound:
		return better
	}
	return same
}

// spread is a measurement's interquartile range as a share of its
// median.
func spread(m measure) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// compareRow is one line of -compare's report.
type compareRow struct {
	workload, metric string
	a, b             float64
	unit             string
	v                verdict
}

// compareSets applies every end-to-end metric's direction and bound
// per workload, compares the exact per-layer counts for equality, and
// the failed share of attempted operations.
func compareSets(a, b *set) []compareRow {
	var rows []compareRow
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			rows = append(rows, compareRow{workload: name, metric: "(workload)", v: unresolved})
			continue
		}
		for _, d := range endToEnd {
			ma, oka := ra.Metrics[d.Name]
			mb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			rows = append(rows, compareRow{name, d.Name, ma.Value, mb.Value, d.Unit, classify(d, ma, mb)})
		}
		for _, d := range perLayer {
			ma, oka := ra.Layers[d.Name]
			mb, okb := rb.Layers[d.Name]
			if !d.Exact || !oka || !okb || (ma.Value == 0 && mb.Value == 0) {
				continue // not exact, not measured, or not exercised by this workload
			}
			rows = append(rows, compareRow{name, d.Name, ma.Value, mb.Value, d.Unit, classify(d, ma, mb)})
		}
		sa, sb := failedShare(ra), failedShare(rb)
		v := same
		switch {
		case sb > sa:
			v = worse
		case sb < sa:
			v = better
		}
		rows = append(rows, compareRow{name, "failed_ops/attempted_ops", sa, sb, "ratio", v})
	}
	return rows
}

func failedShare(r *result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func readSet(path string) (*set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, metric) and returns the
// exit code: 1 on any worse, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xixabench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xixabench:", err)
		return 2
	}
	code := 0
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %-6s %s\n", "workload", "metric", "a", "b", "unit", "verdict")
	for _, r := range compareSets(a, b) {
		fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %-6s %s\n", r.workload, r.metric, r.a, r.b, r.unit, r.v)
		counts[r.v]++
		if r.v == worse {
			code = 1
		}
	}
	fmt.Fprintf(w, "%d same, %d better, %d worse, %d unresolved\n",
		counts[same], counts[better], counts[worse], counts[unresolved])
	return code
}

package experiments

import (
	"io"
	"strings"
	"testing"

	"xixa/internal/core"
	"xixa/internal/tpox"
)

// envCache shares one generated database across tests (generation and
// stats collection dominate test time otherwise).
var envCache *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if envCache == nil {
		e, err := NewEnv(1)
		if err != nil {
			t.Fatal(err)
		}
		envCache = e
	}
	return envCache
}

func TestTableI(t *testing.T) {
	res, err := TableI(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	wantBasic := []string{
		"/Security/Symbol string",
		"/Security/Yield numerical",
		"/Security/SecInfo/*/Sector string",
	}
	if len(res.Basic) != 3 {
		t.Fatalf("basic = %v", res.Basic)
	}
	for i, wantLine := range wantBasic {
		if res.Basic[i] != wantLine {
			t.Errorf("basic[%d] = %q, want %q", i, res.Basic[i], wantLine)
		}
	}
	foundC4 := false
	for _, g := range res.Generalized {
		if g == "/Security//* string" {
			foundC4 = true
		}
	}
	if !foundC4 {
		t.Errorf("generalized candidates missing C4: %v", res.Generalized)
	}
}

func TestFig2Shapes(t *testing.T) {
	res, err := Fig2(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllIndexSpeedup <= 1 {
		t.Fatalf("All-Index speedup = %v", res.AllIndexSpeedup)
	}
	for algo, series := range res.Series {
		// Speedup grows with budget, modulo small dips from the
		// heuristic searches (top-down's ∆B/∆C descent is not globally
		// optimal, so adjacent budgets can differ slightly).
		for i := 1; i < len(series); i++ {
			if series[i].Value < series[i-1].Value*0.90 {
				t.Errorf("%s: speedup fell from %.2f to %.2f between budgets %.2fx and %.2fx",
					algo, series[i-1].Value, series[i].Value,
					series[i-1].BudgetFrac, series[i].BudgetFrac)
			}
		}
		// At double the All-Index budget every algorithm should be near
		// the All-Index speedup (the saturation the paper shows).
		last := series[len(series)-1].Value
		if last < res.AllIndexSpeedup*0.8 {
			t.Errorf("%s: speedup %.2f at 2x budget far from All-Index %.2f",
				algo, last, res.AllIndexSpeedup)
		}
	}
	// Greedy at a tight budget must not beat the heuristic variant
	// (heuristics exist to stop greedy from wasting the budget).
	tight := 1 // the 0.25x point
	if res.Series["greedy"][tight].Value > res.Series["heuristic"][tight].Value+1e-9 {
		t.Errorf("greedy (%.2f) beats heuristic (%.2f) at tight budget",
			res.Series["greedy"][tight].Value, res.Series["heuristic"][tight].Value)
	}
}

func TestFig3RunsAndReports(t *testing.T) {
	res, err := Fig3(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	for algo, series := range res.Series {
		if len(series) != len(fig2Fractions) {
			t.Errorf("%s: %d samples", algo, len(series))
		}
		for _, p := range series {
			if p.Value < 0 {
				t.Errorf("%s: negative run time", algo)
			}
		}
	}
	// The paper's Figure 3 claim: top-down full is the most expensive
	// search (it evaluates whole configurations repeatedly). Compare on
	// optimizer calls, the deterministic proxy, summed over budgets.
	sum := func(algo string) float64 {
		total := 0.0
		for _, p := range res.Calls[algo] {
			total += p.Value
		}
		return total
	}
	if sum(core.AlgoTopDownFull) <= sum(core.AlgoTopDownLite) {
		t.Errorf("top-down full calls (%v) not above lite (%v)",
			sum(core.AlgoTopDownFull), sum(core.AlgoTopDownLite))
	}
	// And the cost shrinks as the budget grows (fewer DAG replacements
	// before the configuration fits).
	full := res.Calls[core.AlgoTopDownFull]
	if full[len(full)-1].Value > full[0].Value {
		t.Errorf("top-down full calls grow with budget: %v -> %v",
			full[0].Value, full[len(full)-1].Value)
	}
}

func TestTable3GeneralizationGrowth(t *testing.T) {
	rows, err := Table3(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		if row.TotalCands < row.BasicCands {
			t.Errorf("row %d: total %d < basic %d", i, row.TotalCands, row.BasicCands)
		}
		// The paper reports up to ~50% expansion even for random
		// workloads; require that generalization adds something.
		if row.TotalCands == row.BasicCands {
			t.Errorf("row %d (n=%d): generalization added no candidates", i, row.Queries)
		}
		if i > 0 && row.BasicCands <= rows[i-1].BasicCands {
			t.Errorf("basic candidates not growing with workload size: %+v", rows)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Top-down recommends more general indexes as the budget grows.
	if last.Lite.G < first.Lite.G {
		t.Errorf("top-down lite generals shrink with budget: %+v", rows)
	}
	if last.Lite.G == 0 {
		t.Errorf("top-down lite recommends no generals at the largest budget: %+v", last)
	}
	// Heuristics stays conservative about generals at every budget.
	for _, row := range rows {
		if row.Heuristic.G > row.Lite.G+1 {
			t.Errorf("heuristics (%d generals) less conservative than top-down (%d) at %s",
				row.Heuristic.G, row.Lite.G, row.BudgetLabel)
		}
	}
}

func TestFig4Generalization(t *testing.T) {
	pts, err := Fig4(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	full := pts[len(pts)-1]
	// Training on the full workload approaches All-Index for both.
	if full.TopDown < full.AllIndex*0.7 || full.Heuristic < full.AllIndex*0.7 {
		t.Errorf("full-training speedups (%.1f, %.1f) far from All-Index %.1f",
			full.TopDown, full.Heuristic, full.AllIndex)
	}
	// The generalization claim (the paper's key feature): summed over
	// partial training sizes, top-down beats the heuristic on the test
	// workload.
	var tdSum, hSum float64
	for _, p := range pts[:15] {
		tdSum += p.TopDown
		hSum += p.Heuristic
	}
	if tdSum <= hSum {
		t.Errorf("top-down does not generalize better: sum %.1f vs heuristic %.1f", tdSum, hSum)
	}
	// Speedup grows with training size overall (first vs last).
	if full.TopDown <= pts[0].TopDown {
		t.Errorf("top-down speedup not growing: n=1 %.1f vs n=20 %.1f", pts[0].TopDown, full.TopDown)
	}
}

func TestFig5ActualCorroboratesEstimated(t *testing.T) {
	if testing.Short() {
		t.Skip("actual-execution sweep in -short mode")
	}
	pts, err := Fig5(io.Discard, testEnv(t), []int{1, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.AllIndex <= 1 {
		t.Errorf("actual All-Index speedup = %.2f, want > 1", last.AllIndex)
	}
	if last.TopDown <= 1 || last.Heuristic <= 1 {
		t.Errorf("actual speedups at n=20: %.2f / %.2f, want > 1", last.TopDown, last.Heuristic)
	}
	// Actual speedup grows with training size, corroborating Fig. 4.
	if last.TopDown < pts[0].TopDown {
		t.Errorf("actual top-down speedup shrank: %.2f -> %.2f", pts[0].TopDown, last.TopDown)
	}
}

func TestAblationCalls(t *testing.T) {
	res, err := AblationCalls(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.WithBoth >= res.NoAffectedSets {
		t.Errorf("§VI-C machinery does not reduce calls: %d vs naive %d",
			res.WithBoth, res.NoAffectedSets)
	}
	if res.WithBoth > res.NoCache {
		t.Errorf("cache increases calls: %d vs %d", res.WithBoth, res.NoCache)
	}
}

func TestAblationBeta(t *testing.T) {
	rows, err := AblationBeta(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger β can only admit more generals.
	for i := 1; i < len(rows); i++ {
		if rows[i].Generals < rows[i-1].Generals {
			t.Errorf("generals shrink as beta grows: %+v", rows)
		}
	}
}

func TestUpdatesExperiment(t *testing.T) {
	rows, err := Updates(io.Discard, testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Indexes == 0 {
		t.Error("query-only workload got no indexes")
	}
	if last.Indexes >= first.Indexes {
		t.Errorf("update pressure did not shrink the recommendation: %d -> %d",
			first.Indexes, last.Indexes)
	}
	if last.Benefit > first.Benefit {
		t.Errorf("benefit grew under update pressure: %.0f -> %.0f", first.Benefit, last.Benefit)
	}
}

func TestXMarkExperiment(t *testing.T) {
	res, err := XMark(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCands <= res.BasicCands {
		t.Error("no generalized candidates on XMark")
	}
	for algo, sp := range res.Speedups {
		if sp <= 1 {
			t.Errorf("%s: XMark speedup %.2f", algo, sp)
		}
	}
}

func TestOutputRendering(t *testing.T) {
	var sb strings.Builder
	if _, err := TableI(&sb, testEnv(t)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "/Security/Symbol", "/Security//*"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestObserveExperiment(t *testing.T) {
	res, err := Observe(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Untuned, every access is a table scan: each site is a TBSCAN or
	// the FILTER applied to one.
	scanned := map[string]bool{}
	for _, r := range res.Before {
		if r.Op == "TBSCAN" {
			scanned[r.Site] = true
		}
	}
	for _, r := range res.Before {
		if r.Op != "TBSCAN" && !(r.Op == "FILTER" && scanned[r.Site]) {
			t.Errorf("untuned run reported %s at %s", r.Op, r.Site)
		}
	}
	if len(scanned) == 0 {
		t.Error("untuned run reported no TBSCAN site")
	}
	ixscan := false
	for _, r := range res.After {
		ixscan = ixscan || r.Op == "IXSCAN"
	}
	if !ixscan {
		t.Error("no IXSCAN site after the tuning round")
	}
	// Two mixes of two rounds, each round the TPoX queries plus an
	// insert after every fourth one.
	q := len(tpox.Queries())
	if want := uint64(4 * (q + (q+3)/4)); res.Statements != want {
		t.Errorf("registry counted %d statements, want %d", res.Statements, want)
	}
	if res.TunerRounds != 1 {
		t.Errorf("registry counted %d tuner rounds, want 1", res.TunerRounds)
	}
}

package experiments

import (
	"fmt"
	"io"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xmark"
	"xixa/internal/xquery"
)

// AblationCallsResult compares Evaluate-Indexes call counts for one
// heuristic search with and without the §VI-C machinery.
type AblationCallsResult struct {
	WithBoth       int64 // affected sets + sub-config cache (the paper's design)
	NoCache        int64 // affected sets only
	NoAffectedSets int64 // neither (naive full-workload evaluation)
	CacheHits      int64
}

// AblationCalls measures how much the affected-set and
// sub-configuration-cache techniques (§VI-C) reduce optimizer calls
// during a greedy-with-heuristics search.
func AblationCalls(w io.Writer, env *Env) (*AblationCallsResult, error) {
	run := func(opts core.Options) (int64, int64, error) {
		wl, err := env.tpoxWorkload()
		if err != nil {
			return 0, 0, err
		}
		adv, err := core.New(env.DB, env.Opt, wl, opts)
		if err != nil {
			return 0, 0, err
		}
		budget := adv.AllIndexSize()
		env.Opt.ResetCallCounters()
		if _, err := adv.Recommend(core.AlgoHeuristic, budget); err != nil {
			return 0, 0, err
		}
		return env.Opt.EvaluateCalls(), adv.Evaluator().CacheHits.Load(), nil
	}
	res := &AblationCallsResult{}
	var err error
	if res.WithBoth, res.CacheHits, err = run(core.DefaultOptions()); err != nil {
		return nil, err
	}
	if res.NoCache, _, err = run(core.Options{Beta: 0.10, DisableSubConfigCache: true}); err != nil {
		return nil, err
	}
	if res.NoAffectedSets, _, err = run(core.Options{
		Beta: 0.10, DisableSubConfigCache: true, DisableAffectedSets: true}); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Ablation (§VI-C): Evaluate-Indexes optimizer calls for one heuristic search\n")
	fmt.Fprintf(w, "  affected sets + sub-config cache : %6d calls (%d cache hits)\n", res.WithBoth, res.CacheHits)
	fmt.Fprintf(w, "  affected sets only               : %6d calls\n", res.NoCache)
	fmt.Fprintf(w, "  naive (whole workload each time) : %6d calls\n", res.NoAffectedSets)
	return res, nil
}

// AblationBetaRow is one β sample.
type AblationBetaRow struct {
	Beta     float64
	Generals int
	Benefit  float64
	Size     int64
}

// AblationBeta sweeps the greedy heuristic's β size-expansion threshold
// (§VI-A; the paper uses 10%).
func AblationBeta(w io.Writer, env *Env) ([]AblationBetaRow, error) {
	wl, err := env.mixedWorkload()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Ablation (§VI-A): β sensitivity of greedy search with heuristics\n")
	fmt.Fprintf(w, "  %6s %10s %14s %12s\n", "beta", "generals", "benefit", "size")
	var rows []AblationBetaRow
	for _, beta := range []float64{0, 0.05, 0.10, 0.25, 0.50, 1.00} {
		adv, err := core.New(env.DB, env.Opt, wl,
			core.Options{Beta: beta})
		if err != nil {
			return nil, err
		}
		rec, err := adv.Recommend(core.AlgoHeuristic, adv.AllIndexSize())
		if err != nil {
			return nil, err
		}
		row := AblationBetaRow{Beta: beta, Generals: rec.GeneralCount(), Benefit: rec.Benefit, Size: rec.TotalSize}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %6.2f %10d %14.0f %12s\n", beta, row.Generals, row.Benefit, mb(row.Size))
	}
	return rows, nil
}

// UpdatesRow is one update-frequency sample.
type UpdatesRow struct {
	UpdateFreq int
	Indexes    int
	Benefit    float64
}

// Updates runs the update-workload experiment (§III): the 11 TPoX
// queries plus an insert stream at increasing frequency. Inserts gain
// nothing from indexes and pay maintenance on every one, so as their
// frequency grows the advisor must recommend fewer indexes and report
// lower benefit. (Deletes/updates are excluded from the sweep: indexes
// legitimately speed up *finding* their target documents, which would
// mix a growing find-benefit into the maintenance signal.)
func Updates(w io.Writer, env *Env) ([]UpdatesRow, error) {
	inserts := make([]string, 0, 2)
	for _, s := range tpox.UpdateStatements() {
		if xquery.MustParse(s).Kind == xquery.Insert {
			inserts = append(inserts, s)
		}
	}
	fmt.Fprintf(w, "Update workloads: recommendation vs insert frequency (heuristic, budget = All-Index)\n")
	fmt.Fprintf(w, "  %12s %10s %14s\n", "insert freq", "indexes", "benefit")
	var rows []UpdatesRow
	for _, freq := range []int{0, 1, 100, 10000, 1000000} {
		wl, err := workload.ParseStatements(tpox.Queries())
		if err != nil {
			return nil, err
		}
		if freq > 0 {
			for _, s := range inserts {
				wl.Add(xquery.MustParse(s), freq)
			}
		}
		adv, err := env.newAdvisor(wl)
		if err != nil {
			return nil, err
		}
		rec, err := adv.Recommend(core.AlgoHeuristic, adv.AllIndexSize())
		if err != nil {
			return nil, err
		}
		row := UpdatesRow{UpdateFreq: freq, Indexes: len(rec.Config), Benefit: rec.Benefit}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %12d %10d %14.0f\n", freq, row.Indexes, row.Benefit)
	}
	return rows, nil
}

// XMarkResult summarizes the XMark extension experiment.
type XMarkResult struct {
	BasicCands int
	TotalCands int
	Speedups   map[string]float64
}

// XMark runs the advisor pipeline on the XMark-lite workload (the
// paper's tech-report experiment) at budget = All-Index size. It
// builds its own database and optimizer (no Env).
func XMark(w io.Writer, scale int) (*XMarkResult, error) {
	db, err := xmark.NewDatabase(scale)
	if err != nil {
		return nil, err
	}
	stats := optimizer.CollectStats(db)
	opt := optimizer.New(db, stats)
	wl, err := workload.ParseStatements(xmark.Queries())
	if err != nil {
		return nil, err
	}
	adv, err := core.New(db, opt, wl, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res := &XMarkResult{
		BasicCands: len(adv.Candidates.Basic()),
		TotalCands: len(adv.Candidates.All),
		Speedups:   make(map[string]float64),
	}
	fmt.Fprintf(w, "XMark extension: %d basic candidates, %d after generalization\n",
		res.BasicCands, res.TotalCands)
	fmt.Fprintf(w, "  %-14s %12s\n", "algorithm", "speedup")
	for _, algo := range core.Algorithms() {
		rec, err := adv.Recommend(algo, adv.AllIndexSize())
		if err != nil {
			return nil, err
		}
		sp := adv.EstimatedSpeedup(rec.Config)
		res.Speedups[algo] = sp
		fmt.Fprintf(w, "  %-14s %11.1fx\n", algo, sp)
	}
	return res, nil
}

// Package core implements the paper's contribution: the XML Index
// Advisor with tight optimizer coupling (Elghandour et al., ICDE 2008).
//
// The advisor's pipeline mirrors Figure 1 of the paper:
//
//  1. For each workload statement, the query optimizer — in Enumerate
//     Indexes mode, with a //* virtual universal index planted —
//     enumerates the basic candidate index patterns (§IV).
//  2. The candidate set is expanded by the generalization algorithm
//     (Algorithm 1 + Table II, §V), producing general candidates that
//     can serve multiple (and future) queries.
//  3. A search algorithm picks the configuration maximizing workload
//     benefit under the disk-space budget (§VI): plain greedy, greedy
//     with heuristics, top-down lite, top-down full, or dynamic
//     programming.
//
// Benefits are always estimated by the optimizer in Evaluate Indexes
// mode over virtual index configurations; the advisor performs no cost
// modeling of its own. The number of optimizer calls is minimized by
// affected-set tracking and sub-configuration caching (§VI-C).
package core

import (
	"fmt"
	"sort"
	"time"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// Options tunes the advisor.
type Options struct {
	// Beta is the size-expansion threshold of the greedy heuristic
	// (§VI-A). The paper found 10% to work well.
	Beta float64
	// DisableSubConfigCache turns off the §VI-C caching, for the
	// ablation experiment that counts optimizer calls.
	DisableSubConfigCache bool
	// DisableAffectedSets makes benefit evaluation call the optimizer
	// for every workload statement instead of only affected ones
	// (ablation).
	DisableAffectedSets bool
	// Parallelism is ignored: the advisor runs on its caller's
	// goroutine. The field remains for callers that still set it.
	Parallelism int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{Beta: 0.10}
}

// Advisor is the XML Index Advisor.
type Advisor struct {
	DB   *storage.Database
	Opt  *optimizer.Optimizer
	Opts Options

	W          *workload.Workload
	Candidates *CandidateSet
	eval       *Evaluator
}

// New creates an advisor over a database and a training workload. It
// immediately runs candidate enumeration and generalization (steps 1-2
// of the pipeline). Statistics are read through the optimizer's
// statistics source, so candidate sizing always agrees with what-if
// costing — including under a live (NewLive) optimizer whose statistics
// track table mutations.
func New(db *storage.Database, opt *optimizer.Optimizer,
	w *workload.Workload, opts Options) (*Advisor, error) {
	if w == nil || w.Len() == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	a := &Advisor{DB: db, Opt: opt, Opts: opts, W: w}
	cs, err := a.enumerateBasic(w)
	if err != nil {
		return nil, err
	}
	a.Candidates = cs
	a.generalizeAll(cs)
	a.eval = newEvaluator(a)
	return a, nil
}

// statsFor derives the virtual statistics of a definition from the
// optimizer's current statistics snapshot.
func (a *Advisor) statsFor(def xindex.Definition) xstats.PatternStats {
	ts, err := a.Opt.TableStats(def.Table)
	if err != nil {
		return xstats.PatternStats{}
	}
	return ts.ForPattern(def.Pattern, def.Type)
}

// Algorithm names accepted by Recommend.
const (
	AlgoGreedy      = "greedy"
	AlgoHeuristic   = "heuristic"
	AlgoTopDownLite = "topdown-lite"
	AlgoTopDownFull = "topdown-full"
	AlgoDP          = "dp"
)

// Algorithms lists the implemented search algorithms in the order the
// paper's Figure 2 presents them.
func Algorithms() []string {
	return []string{AlgoGreedy, AlgoHeuristic, AlgoTopDownLite, AlgoTopDownFull, AlgoDP}
}

// Recommendation is the advisor's output for one search run.
type Recommendation struct {
	Algorithm string
	Budget    int64
	// Config is the recommended candidate set, sorted by ID.
	Config []*Candidate
	// TotalSize is the estimated size of the configuration.
	TotalSize int64
	// Benefit is the estimated workload benefit of the configuration
	// (paper §III formula, maintenance cost included).
	Benefit float64
	// OptimizerCalls is the number of Evaluate Indexes calls consumed,
	// measured as the delta of the optimizer's shared call counter. It
	// is exact when the optimizer serves only this search; searches
	// running concurrently on the same optimizer remain correct but blur
	// each other's per-recommendation attribution.
	OptimizerCalls int64
	// Elapsed is the advisor run time for this search.
	Elapsed time.Duration
}

// Definitions returns the recommended index definitions.
func (r *Recommendation) Definitions() []xindex.Definition {
	out := make([]xindex.Definition, len(r.Config))
	for i, c := range r.Config {
		out[i] = c.Def
	}
	return out
}

// GeneralCount and SpecificCount report the Table IV breakdown.
func (r *Recommendation) GeneralCount() int {
	n := 0
	for _, c := range r.Config {
		if c.General {
			n++
		}
	}
	return n
}

// SpecificCount reports the number of non-general indexes recommended.
func (r *Recommendation) SpecificCount() int { return len(r.Config) - r.GeneralCount() }

// Recommend runs one search algorithm under a disk budget (bytes).
func (a *Advisor) Recommend(algorithm string, budget int64) (*Recommendation, error) {
	start := time.Now()
	callsBefore := a.Opt.EvaluateCalls()
	var cfg []*Candidate
	var err error
	switch algorithm {
	case AlgoGreedy:
		cfg = a.searchGreedy(budget)
	case AlgoHeuristic:
		cfg = a.searchGreedyHeuristic(budget)
	case AlgoTopDownLite:
		cfg = a.searchTopDown(budget, false)
	case AlgoTopDownFull:
		cfg = a.searchTopDown(budget, true)
	case AlgoDP:
		cfg = a.searchDP(budget)
	default:
		err = fmt.Errorf("core: unknown search algorithm %q (have %v)", algorithm, Algorithms())
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(cfg, func(i, j int) bool { return cfg[i].ID < cfg[j].ID })
	rec := &Recommendation{
		Algorithm:      algorithm,
		Budget:         budget,
		Config:         cfg,
		TotalSize:      totalSize(cfg),
		Benefit:        a.eval.ConfigBenefit(cfg),
		OptimizerCalls: a.Opt.EvaluateCalls() - callsBefore,
		Elapsed:        time.Since(start),
	}
	return rec, nil
}

// AllIndexConfig returns the configuration holding every basic
// candidate — the paper's "All Index" reference configuration ("XML
// indexes for every indexable XPath expression in the workloads").
func (a *Advisor) AllIndexConfig() []*Candidate {
	return append([]*Candidate(nil), a.Candidates.Basic()...)
}

// AllIndexSize returns the estimated size of the All Index
// configuration (95 MB for the paper's TPoX setup; scale-dependent
// here).
func (a *Advisor) AllIndexSize() int64 {
	return totalSize(a.AllIndexConfig())
}

// EstimatedSpeedup is the paper's evaluation metric: workload cost with
// no XML indexes divided by workload cost under the configuration.
func (a *Advisor) EstimatedSpeedup(cfg []*Candidate) float64 {
	base := a.eval.BaselineCost()
	under := a.eval.WorkloadCost(cfg)
	if under <= 0 {
		return 1
	}
	return base / under
}

// Evaluator exposes the benefit evaluator (for tests and experiments).
func (a *Advisor) Evaluator() *Evaluator { return a.eval }

// WorkloadCostUnder estimates this advisor's workload cost under an
// arbitrary set of index definitions — typically a configuration
// recommended from a *different* (training) workload. Used by the
// generalization-to-unseen-queries experiments (paper Fig. 4/5): train
// on a prefix, score on the full workload.
func (a *Advisor) WorkloadCostUnder(defs []xindex.Definition) float64 {
	total := 0.0
	for _, item := range a.W.Items {
		cost, err := a.Opt.EvaluateCost(item.Stmt, defs)
		if err != nil {
			continue
		}
		c := float64(item.Freq) * cost
		if item.Stmt.Kind != xquery.Query {
			for _, def := range defs {
				c += float64(item.Freq) * a.Opt.MaintenanceCost(def, item.Stmt)
			}
		}
		total += c
	}
	return total
}

// SpeedupUnder is the estimated workload speedup of an arbitrary
// definition set: no-index cost divided by cost under the definitions.
func (a *Advisor) SpeedupUnder(defs []xindex.Definition) float64 {
	base := a.eval.BaselineCost()
	under := a.WorkloadCostUnder(defs)
	if under <= 0 {
		return 1
	}
	return base / under
}

func totalSize(cfg []*Candidate) int64 {
	var total int64
	for _, c := range cfg {
		total += c.SizeBytes
	}
	return total
}

package core

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
)

// Evaluator implements the efficient benefit evaluation of §VI-C:
//
//   - Affected sets: to evaluate a configuration, the optimizer is only
//     called for the union of the affected sets of its indexes — the
//     statements that can possibly change plan.
//   - Sub-configurations: the configuration is split into groups of
//     indexes with overlapping affected sets (indexes in different
//     groups cannot interact); each group is evaluated independently
//     and cached, so re-evaluations during search hit the cache.
//
// Benefit(x1..xn; W) = Σ_s freq_s·(s_old − s_new) − Σ_s Σ_i mc(x_i, s),
// the paper's §III formula. (We scale mc by freq_s as well: mc is a
// per-execution cost, and a statement occurring freq times performs
// maintenance freq times.)
//
// The evaluator is safe for concurrent use: the sub-configuration cache
// is sharded behind RWMutexes, the hit counter is atomic, and the
// evaluation loops only write into per-call slices. Independent
// sub-configuration groups and the per-statement optimizer calls inside
// a group are fanned out across Options.Parallelism workers.
type Evaluator struct {
	a *Advisor
	// baseCost[i] is the no-index cost of statement i times its
	// frequency.
	baseCost []float64
	// mc[k][id] is freq·mc(candidate id, s) for the k-th data-modifying
	// statement s in workload order: configuration-invariant, so it is
	// computed once per advisor rather than on every benefit evaluation.
	mc [][]float64
	// subCache maps a sub-configuration key to its query benefit.
	subCache *benefitCache
	// CacheHits counts sub-configuration cache hits (ablation metric).
	CacheHits atomic.Int64
}

func newEvaluator(a *Advisor) *Evaluator {
	e := &Evaluator{a: a, subCache: newBenefitCache()}
	e.baseCost = make([]float64, a.W.Len())
	a.parallelFor(a.W.Len(), func(i int) {
		item := a.W.Items[i]
		plan, err := a.Opt.EvaluateIndexes(item.Stmt, nil)
		if err != nil {
			// Statements over unknown tables cost nothing and gain
			// nothing; they simply never contribute benefit.
			return
		}
		e.baseCost[i] = float64(item.Freq) * plan.EstCost
	})
	var modifying []workload.Item
	for _, item := range a.W.Items {
		if item.Stmt.Kind != xquery.Query {
			modifying = append(modifying, item)
		}
	}
	all := a.Candidates.All
	e.mc = make([][]float64, len(modifying))
	for k := range e.mc {
		e.mc[k] = make([]float64, len(all))
	}
	a.parallelFor(len(all), func(id int) {
		for k, item := range modifying {
			e.mc[k][id] = float64(item.Freq) * a.Opt.MaintenanceCost(all[id].Def, item.Stmt)
		}
	})
	return e
}

// BaselineCost is the total workload cost with no indexes.
func (e *Evaluator) BaselineCost() float64 {
	return sumInOrder(e.baseCost)
}

// ConfigBenefit returns the benefit of a configuration over the empty
// configuration, per the §III formula (query gains minus maintenance).
func (e *Evaluator) ConfigBenefit(cfg []*Candidate) float64 {
	if len(cfg) == 0 {
		return 0
	}
	return e.queryBenefit(cfg) - e.maintenanceCost(cfg)
}

// WorkloadCost is the frequency-weighted workload cost under cfg,
// including maintenance: baseline − benefit.
func (e *Evaluator) WorkloadCost(cfg []*Candidate) float64 {
	return e.BaselineCost() - e.ConfigBenefit(cfg)
}

// StandaloneBenefit returns (and caches) the benefit of the candidate
// alone, used by plain greedy, top-down lite, and DP — the searches
// that ignore index interaction. The once-guard makes concurrent
// searches sharing an advisor race-free.
func (e *Evaluator) StandaloneBenefit(c *Candidate) float64 {
	c.standaloneOnce.Do(func() {
		c.standalone = e.ConfigBenefit([]*Candidate{c})
	})
	return c.standalone
}

// queryBenefit computes Σ freq·(s_old − s_new) using the affected-set
// and sub-configuration machinery. The cache is probed per group, then
// the optimizer calls of every uncached group are flattened into one
// task list and fanned out together — a single parallelFor at maximal
// width instead of nested group/statement pools. Gains are reduced per
// group in statement order and groups are summed in group order, so
// the float result is identical at every Parallelism level.
func (e *Evaluator) queryBenefit(cfg []*Candidate) float64 {
	if e.a.Opts.DisableAffectedSets {
		return e.evaluateGroupAllStatements(cfg)
	}
	groups := splitSubConfigs(cfg)
	useCache := !e.a.Opts.DisableSubConfigCache
	benefits := make([]float64, len(groups))
	cached := make([]bool, len(groups))
	keys := make([]string, len(groups))
	defsOf := make([][]xindex.Definition, len(groups))

	// One task per (uncached group, affected statement).
	type evalTask struct {
		group int
		ord   int
	}
	var tasks []evalTask
	starts := make([]int, len(groups))
	ends := make([]int, len(groups))
	for gi, group := range groups {
		keys[gi] = groupKey(group)
		if useCache {
			if b, ok := e.subCache.get(keys[gi]); ok {
				e.CacheHits.Add(1)
				benefits[gi] = b
				cached[gi] = true
				continue
			}
		}
		affected := NewBitSet(e.a.W.Len())
		defs := make([]xindex.Definition, len(group))
		for i, c := range group {
			affected.Or(c.Affected)
			defs[i] = c.Def
		}
		defsOf[gi] = defs
		starts[gi] = len(tasks)
		for _, ord := range affected.Elements() {
			tasks = append(tasks, evalTask{group: gi, ord: ord})
		}
		ends[gi] = len(tasks)
	}

	gains := make([]float64, len(tasks))
	e.a.parallelFor(len(tasks), func(k int) {
		t := tasks[k]
		item := e.a.W.Items[t.ord]
		plan, err := e.a.Opt.EvaluateIndexes(item.Stmt, defsOf[t.group])
		if err != nil {
			return
		}
		gains[k] = e.baseCost[t.ord] - float64(item.Freq)*plan.EstCost
	})

	for gi := range groups {
		if cached[gi] {
			continue
		}
		benefits[gi] = sumInOrder(gains[starts[gi]:ends[gi]])
		if useCache {
			e.subCache.put(keys[gi], benefits[gi])
		}
	}
	return sumInOrder(benefits)
}

// splitSubConfigs groups candidates whose affected sets overlap
// (transitively): indexes in different groups cannot appear in the same
// statement's plan, so their benefits are independent (§VI-C).
func splitSubConfigs(cfg []*Candidate) [][]*Candidate {
	n := len(cfg)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(i, j int) { parent[find(i)] = find(j) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cfg[i].Affected.Intersects(cfg[j].Affected) {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]*Candidate)
	for i, c := range cfg {
		r := find(i)
		groups[r] = append(groups[r], c)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]*Candidate, 0, len(groups))
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool { return g[i].ID < g[j].ID })
		out = append(out, g)
	}
	return out
}

// groupKey canonically identifies a sub-configuration.
func groupKey(group []*Candidate) string {
	ids := make([]string, len(group))
	for i, c := range group {
		ids[i] = strconv.Itoa(c.ID)
	}
	return strings.Join(ids, ",")
}

// evaluateGroupAllStatements is the naive evaluation used when affected
// sets are disabled (ablation): every statement is re-optimized.
func (e *Evaluator) evaluateGroupAllStatements(cfg []*Candidate) float64 {
	defs := make([]xindex.Definition, len(cfg))
	for i, c := range cfg {
		defs[i] = c.Def
	}
	gains := make([]float64, len(e.a.W.Items))
	e.a.parallelFor(len(e.a.W.Items), func(ord int) {
		item := e.a.W.Items[ord]
		plan, err := e.a.Opt.EvaluateIndexes(item.Stmt, defs)
		if err != nil {
			return
		}
		gains[ord] = e.baseCost[ord] - float64(item.Freq)*plan.EstCost
	})
	return sumInOrder(gains)
}

// maintenanceCost sums mc over the workload's data-modifying statements
// for every index in the configuration, reading the advisor's mc table.
// The additions run statements-outer, configuration-inner, one table
// entry at a time: pre-summing per candidate would reorder the float
// additions and change the benefit's bits.
func (e *Evaluator) maintenanceCost(cfg []*Candidate) float64 {
	total := 0.0
	for _, row := range e.mc {
		for _, c := range cfg {
			total += row[c.ID]
		}
	}
	return total
}

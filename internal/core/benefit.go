package core

import (
	"slices"
	"strconv"
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
	// spare is split scratch no evaluation is using. Searches evaluate
	// one configuration at a time, so one is enough; a concurrent
	// evaluation that finds it taken makes its own.
	spare atomic.Pointer[subConfigs]
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
// and sub-configuration machinery. The cache is probed once per group,
// with the group's key built in a stack buffer; when every group hits,
// the sum is all there is to do. Otherwise the optimizer calls of every
// uncached group are flattened into one task list and fanned out
// together — a single parallelFor at maximal width instead of nested
// group/statement pools. Gains are reduced per group in statement order
// and groups are summed in group order, so the float result is
// identical at every Parallelism level.
func (e *Evaluator) queryBenefit(cfg []*Candidate) float64 {
	if e.a.Opts.DisableAffectedSets {
		return e.evaluateGroupAllStatements(cfg)
	}
	s := e.spare.Swap(nil)
	if s == nil {
		s = new(subConfigs)
	}
	defer func() {
		clear(s.members) // keep no candidates alive
		e.spare.Store(s)
	}()
	s.split(cfg)
	useCache := !e.a.Opts.DisableSubConfigCache
	benefits := resized(s.benefits, s.len())
	s.benefits = benefits
	missed := s.missed[:0]
	var kb [256]byte
	var hits int64
	for gi := range benefits {
		if useCache {
			if b, ok := e.subCache.get(appendGroupKey(kb[:0], s.group(gi))); ok {
				hits++
				benefits[gi] = b
				continue
			}
		}
		missed = append(missed, gi)
	}
	s.missed = missed
	if hits > 0 {
		e.CacheHits.Add(hits)
	}
	if len(missed) == 0 {
		return sumInOrder(benefits)
	}

	// One task per (uncached group, affected statement), in miss order:
	// missed[k]'s tasks are tasks[starts[k]:starts[k+1]].
	type evalTask struct {
		miss int
		ord  int
	}
	var tasks []evalTask
	starts := append(make([]int, 0, len(missed)+1), 0)
	defsOf := make([][]xindex.Definition, len(missed))
	for k, gi := range missed {
		group := s.group(gi)
		affected := NewBitSet(e.a.W.Len())
		defs := make([]xindex.Definition, len(group))
		for i, c := range group {
			affected.Or(c.Affected)
			defs[i] = c.Def
		}
		defsOf[k] = defs
		for _, ord := range affected.Elements() {
			tasks = append(tasks, evalTask{miss: k, ord: ord})
		}
		starts = append(starts, len(tasks))
	}

	gains := make([]float64, len(tasks))
	e.a.parallelFor(len(tasks), func(t int) {
		task := tasks[t]
		item := e.a.W.Items[task.ord]
		plan, err := e.a.Opt.EvaluateIndexes(item.Stmt, defsOf[task.miss])
		if err != nil {
			return
		}
		gains[t] = e.baseCost[task.ord] - float64(item.Freq)*plan.EstCost
	})

	for k, gi := range missed {
		benefits[gi] = sumInOrder(gains[starts[k]:starts[k+1]])
		if useCache {
			e.subCache.put(string(appendGroupKey(kb[:0], s.group(gi))), benefits[gi])
		}
	}
	return sumInOrder(benefits)
}

// subConfigs is one configuration's §VI-C split: its groups, in order,
// as consecutive runs of members. The evaluator reuses these, so a
// split allocates nothing once its scratch has grown to size.
type subConfigs struct {
	parent  []int // union-find forest over cfg positions
	slot    []int // a root's group number
	members []*Candidate
	// bounds[g] and bounds[g+1] delimit group g in members.
	bounds   []int
	benefits []float64
	missed   []int
}

func (s *subConfigs) len() int { return len(s.bounds) - 1 }

func (s *subConfigs) group(g int) []*Candidate { return s.members[s.bounds[g]:s.bounds[g+1]] }

// split groups candidates whose affected sets overlap (transitively):
// indexes in different groups cannot appear in the same statement's
// plan, so their benefits are independent (§VI-C). Groups come in
// ascending order of their union-find root under the union order below
// — the order their benefits are summed in, so it fixes the benefit's
// bits — and each group's members ascend by ID.
func (s *subConfigs) split(cfg []*Candidate) {
	n := len(cfg)
	parent := resized(s.parent, n)
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	for i := 0; i < n; i++ {
		ri := find(parent, i)
		for j := i + 1; j < n; j++ {
			// union(i, j) makes i's root a child of j's; for a pair
			// already in one group that changes nothing, so the
			// intersection test is skipped.
			if rj := find(parent, j); rj != ri && cfg[i].Affected.Intersects(cfg[j].Affected) {
				parent[ri] = rj
				ri = rj
			}
		}
	}
	slot := resized(s.slot, n)
	s.slot = slot
	groups := 0
	for i := range parent {
		if parent[i] == i {
			slot[i] = groups
			groups++
		}
	}
	// A counting sort of the members by group: count, sum, then place
	// from the back, which leaves bounds[g] at group g's first member.
	bounds := resized(s.bounds, groups+1)
	s.bounds = bounds
	clear(bounds)
	for i := range cfg {
		bounds[slot[find(parent, i)]]++
	}
	for g := 1; g <= groups; g++ {
		bounds[g] += bounds[g-1]
	}
	members := resized(s.members, n)
	s.members = members
	for i := n - 1; i >= 0; i-- {
		g := slot[find(parent, i)]
		bounds[g]--
		members[bounds[g]] = cfg[i]
	}
	for g := 0; g < groups; g++ {
		slices.SortFunc(s.group(g), func(a, b *Candidate) int { return a.ID - b.ID })
	}
}

// find returns i's union-find root, halving the path on the way. Path
// compression never changes which element is a root.
func find(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// resized returns a slice of length n, reusing buf's array when it is
// large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// appendGroupKey appends the key that canonically identifies a
// sub-configuration: its candidate IDs in decimal, comma-separated.
func appendGroupKey(b []byte, group []*Candidate) []byte {
	for i, c := range group {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c.ID), 10)
	}
	return b
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

package core

import (
	"math/bits"
	"slices"
	"strconv"
	"sync"
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
// The evaluator runs on its caller's goroutine and is safe for
// concurrent use: the sub-configuration cache sits behind an RWMutex,
// the hit counter is atomic, and an evaluation writes only into split
// scratch no other evaluation holds.
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
	subMu    sync.RWMutex
	subCache map[string]float64
	// spare is split scratch no evaluation is using. Searches evaluate
	// one configuration at a time, so one is enough; a concurrent
	// evaluation that finds it taken makes its own.
	spare atomic.Pointer[subConfigs]
	// CacheHits counts sub-configuration cache hits (ablation metric).
	CacheHits atomic.Int64
}

func newEvaluator(a *Advisor) *Evaluator {
	e := &Evaluator{a: a, subCache: make(map[string]float64)}
	e.baseCost = make([]float64, a.W.Len())
	for i, item := range a.W.Items {
		cost, err := a.Opt.EvaluateCost(item.Stmt, nil)
		if err != nil {
			// Statements over unknown tables cost nothing and gain
			// nothing; they simply never contribute benefit.
			continue
		}
		e.baseCost[i] = float64(item.Freq) * cost
	}
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
	for id, c := range all {
		for k, item := range modifying {
			e.mc[k][id] = float64(item.Freq) * a.Opt.MaintenanceCost(c.Def, item.Stmt)
		}
	}
	return e
}

// BaselineCost is the total workload cost with no indexes, summed in
// statement order.
func (e *Evaluator) BaselineCost() float64 {
	total := 0.0
	for _, c := range e.baseCost {
		total += c
	}
	return total
}

// ConfigBenefit returns the benefit of a configuration over the empty
// configuration, per the §III formula (query gains minus maintenance).
func (e *Evaluator) ConfigBenefit(cfg []*Candidate) float64 {
	return e.extendedBenefit(&keptSplit{}, cfg)
}

// extendedBenefit is ConfigBenefit(k.cfg ++ extra), bit for bit, cache
// hits included, evaluating only the groups the extras touch.
func (e *Evaluator) extendedBenefit(k *keptSplit, extra []*Candidate) float64 {
	if len(k.cfg)+len(extra) == 0 {
		return 0
	}
	return e.queryBenefit(k, extra) - e.maintenanceCost(k.cfg, extra)
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

// keptSplit is a configuration with its §VI-C split kept for
// extension. The greedy heuristic (§VI-A) scores every trial
// cfg ++ extra against one cfg, so keep splits cfg once per greedy
// step and each trial splits only what its extras touch. A
// configuration evaluated from scratch is the extension of the empty
// split. groupOf covers all of cfg when the evaluator reuses splits
// and none of it under the ablation options (DisableSubConfigCache,
// DisableAffectedSets), where every trial is split and evaluated
// whole.
type keptSplit struct {
	cfg     []*Candidate
	groupOf []int       // groupOf[p] is the group of cfg[p]
	groups  []keptGroup // in ascending order of root
}

// keptGroup is one group of a kept split.
type keptGroup struct {
	root     int     // position in cfg of the group's union-find root
	affected BitSet  // the union of the members' affected sets
	benefit  float64 // the group's query benefit, as cached
}

// queryBenefit computes Σ freq·(s_old − s_new) of k.cfg ++ extra using
// the affected-set and sub-configuration machinery. Kept groups no
// extra touches bring their benefit along and count as cache hits, as
// the probe of their key would have; the other groups come from
// componentBenefits. Groups are summed in root order, so the float
// result is the whole trial's split's.
func (e *Evaluator) queryBenefit(k *keptSplit, extra []*Candidate) float64 {
	if e.a.Opts.DisableAffectedSets {
		return e.evaluateGroupAllStatements(k.cfg, extra)
	}
	s := e.scratch()
	defer e.release(s)
	s.split(k, extra)
	hits := e.componentBenefits(s)
	total := 0.0
	for _, g := range s.order {
		if g >= 0 {
			hits++
			total += k.groups[g].benefit
		} else {
			total += s.benefits[^g]
		}
	}
	if hits > 0 {
		e.CacheHits.Add(hits)
	}
	return total
}

// keep appends c to k's configuration and splits it again: once per
// greedy step, against thousands of trials. Groups missing from the
// cache are evaluated, but the search has just evaluated k.cfg ++ c,
// so there every group is a hit; keep counts none of them, that
// evaluation did. A reused group stands for a cache hit, so with the
// cache or the affected sets off no split is kept.
func (e *Evaluator) keep(k *keptSplit, c *Candidate) {
	k.cfg = append(k.cfg, c)
	if e.a.Opts.DisableSubConfigCache || e.a.Opts.DisableAffectedSets {
		return
	}
	s := e.scratch()
	defer e.release(s)
	s.split(&keptSplit{}, k.cfg)
	e.componentBenefits(s)
	k.groups = make([]keptGroup, s.len())
	for g := range k.groups {
		kg := &k.groups[g]
		kg.root, kg.benefit = s.roots[g], s.benefits[g]
		for _, m := range s.group(g) {
			kg.affected.Or(m.Affected)
		}
	}
	k.groupOf = make([]int, len(k.cfg))
	for p := range k.groupOf { // the split's members are k.cfg, in order
		k.groupOf[p] = s.slot[find(s.parent, p)]
	}
}

// scratch takes the evaluator's spare split scratch, or makes one when
// a concurrent evaluation holds it.
func (e *Evaluator) scratch() *subConfigs {
	if s := e.spare.Swap(nil); s != nil {
		return s
	}
	return new(subConfigs)
}

func (e *Evaluator) release(s *subConfigs) {
	clear(s.news) // keep no candidates alive
	clear(s.members)
	clear(s.defs)
	e.spare.Store(s)
}

// componentBenefits fills s.benefits with each component's query
// benefit, from the cache or from the optimizer, and returns the number
// of cache hits. Every component is probed before any missed one is
// evaluated and cached, as when the misses were one batch.
func (e *Evaluator) componentBenefits(s *subConfigs) int64 {
	useCache := !e.a.Opts.DisableSubConfigCache
	benefits := resized(s.benefits, s.len())
	s.benefits = benefits
	missed := s.missed[:0]
	var hits int64
	for c := range benefits {
		if useCache {
			s.key = appendGroupKey(s.key[:0], s.group(c))
			// The string(b) index does not copy the key's bytes, so a
			// probe allocates nothing.
			e.subMu.RLock()
			b, ok := e.subCache[string(s.key)]
			e.subMu.RUnlock()
			if ok {
				hits++
				benefits[c] = b
				continue
			}
		}
		missed = append(missed, c)
	}
	s.missed = missed
	for _, c := range missed {
		benefits[c] = e.missedBenefit(s, s.group(c))
		if useCache {
			s.key = appendGroupKey(s.key[:0], s.group(c))
			e.subMu.Lock()
			e.subCache[string(s.key)] = benefits[c]
			e.subMu.Unlock()
		}
	}
	return hits
}

// missedBenefit costs one component the cache does not hold: one
// optimizer call per statement in the union of its members' affected
// sets, in statement order, summing the gains in that order. It builds
// the configuration and the union in s, so it allocates nothing once s
// has grown to size.
func (e *Evaluator) missedBenefit(s *subConfigs, group []*Candidate) float64 {
	defs := s.defs[:0]
	for _, m := range group {
		defs = append(defs, m.Def)
	}
	s.defs = defs
	affected := &s.affected
	affected.words = resized(affected.words, (e.a.W.Len()+63)/64)
	clear(affected.words)
	for _, m := range group {
		affected.Or(m.Affected)
	}
	total := 0.0
	for wi, w := range affected.words {
		for ; w != 0; w &= w - 1 {
			ord := wi*64 + bits.TrailingZeros64(w)
			item := e.a.W.Items[ord]
			cost, err := e.a.Opt.EvaluateCost(item.Stmt, defs)
			if err != nil {
				continue
			}
			total += e.baseCost[ord] - float64(item.Freq)*cost
		}
	}
	return total
}

// subConfigs is the §VI-C split of one trial configuration
// k.cfg ++ extra over a kept split k. The kept groups whose union no
// new member's affected set intersects stay whole. The rest — the
// extras, cfg's unsplit positions and the members of the kept groups
// they touch — are the new members, split into components. The
// evaluator reuses these, so a split allocates nothing once its
// scratch has grown to size.
type subConfigs struct {
	touched  []bool       // touched[g]: kept group g merges into a component
	pos      []int        // the new members' trial positions, ascending
	news     []*Candidate // the new members, in trial order
	parent   []int        // union-find forest over news
	slot     []int        // a root's component number
	members  []*Candidate // the new members by component
	bounds   []int        // bounds[c] and bounds[c+1] delimit component c in members
	roots    []int        // component c's root position in the trial
	order    []int        // the trial's groups in root order: g >= 0 is kept group g, ^c is component c
	benefits []float64    // component c's query benefit
	missed   []int
	key      []byte
	defs     []xindex.Definition // a missed component's configuration
	affected BitSet              // a missed component's affected statements
}

func (s *subConfigs) len() int { return len(s.bounds) - 1 }

func (s *subConfigs) group(c int) []*Candidate { return s.members[s.bounds[c]:s.bounds[c+1]] }

// split groups the trial's candidates whose affected sets overlap
// (transitively): indexes in different groups cannot appear in the
// same statement's plan, so their benefits are independent (§VI-C).
// The groups and their order are those of the union-find below run
// over the whole trial in trial order: groups ascend by root position,
// the order their benefits are summed in, so it fixes the benefit's
// bits; each group's members ascend by ID.
//
// Running the union-find over the new members only gives the same
// groups and roots. A union or a find touches the members of one group
// only, so a group's root depends only on its own members in trial
// order, and a kept group no new member touches keeps its root.
func (s *subConfigs) split(k *keptSplit, extra []*Candidate) {
	kept, n := len(k.groupOf), len(k.cfg)
	touched := resized(s.touched, len(k.groups))
	s.touched = touched
	clear(touched)
	// cfg has unsplit positions only when it has no groups, so only
	// the extras can touch one.
	for _, c := range extra {
		for g := range k.groups {
			if !touched[g] && k.groups[g].affected.Intersects(c.Affected) {
				touched[g] = true
			}
		}
	}
	pos, news := s.pos[:0], s.news[:0]
	for p, g := range k.groupOf {
		if touched[g] {
			pos, news = append(pos, p), append(news, k.cfg[p])
		}
	}
	for p := kept; p < n; p++ {
		pos, news = append(pos, p), append(news, k.cfg[p])
	}
	for i, c := range extra {
		pos, news = append(pos, n+i), append(news, c)
	}
	s.pos, s.news = pos, news

	m := len(news)
	parent := resized(s.parent, m)
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	for i := 0; i < m; i++ {
		ri := find(parent, i)
		for j := i + 1; j < m; j++ {
			// union(i, j) makes i's root a child of j's; for a pair
			// already in one group that changes nothing, so the
			// intersection test is skipped.
			if rj := find(parent, j); rj != ri && news[i].Affected.Intersects(news[j].Affected) {
				parent[ri] = rj
				ri = rj
			}
		}
	}
	slot := resized(s.slot, m)
	s.slot = slot
	roots := s.roots[:0]
	for i := range parent {
		if parent[i] == i {
			slot[i] = len(roots)
			roots = append(roots, pos[i])
		}
	}
	s.roots = roots
	comps := len(roots)
	// A counting sort of the members by component: count, sum, then
	// place from the back, which leaves bounds[c] at component c's
	// first member.
	bounds := resized(s.bounds, comps+1)
	s.bounds = bounds
	clear(bounds)
	for i := range news {
		bounds[slot[find(parent, i)]]++
	}
	for c := 1; c <= comps; c++ {
		bounds[c] += bounds[c-1]
	}
	members := resized(s.members, m)
	s.members = members
	for i := m - 1; i >= 0; i-- {
		c := slot[find(parent, i)]
		bounds[c]--
		members[bounds[c]] = news[i]
	}
	for c := 0; c < comps; c++ {
		slices.SortFunc(s.group(c), func(a, b *Candidate) int { return a.ID - b.ID })
	}

	// Merge the untouched kept groups and the components by root.
	order := s.order[:0]
	for g, c := 0, 0; g < len(k.groups) || c < comps; {
		switch {
		case g < len(k.groups) && touched[g]:
			g++
		case c == comps || g < len(k.groups) && k.groups[g].root < roots[c]:
			order = append(order, g)
			g++
		default:
			order = append(order, ^c)
			c++
		}
	}
	s.order = order
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
func (e *Evaluator) evaluateGroupAllStatements(cfg, extra []*Candidate) float64 {
	defs := make([]xindex.Definition, 0, len(cfg)+len(extra))
	for _, c := range cfg {
		defs = append(defs, c.Def)
	}
	for _, c := range extra {
		defs = append(defs, c.Def)
	}
	total := 0.0
	for ord, item := range e.a.W.Items {
		cost, err := e.a.Opt.EvaluateCost(item.Stmt, defs)
		if err != nil {
			continue
		}
		total += e.baseCost[ord] - float64(item.Freq)*cost
	}
	return total
}

// maintenanceCost sums mc over the workload's data-modifying statements
// for every index in the configuration cfg ++ extra, reading the
// advisor's mc table. The additions run statements-outer,
// configuration-inner, one table entry at a time: pre-summing per
// candidate would reorder the float additions and change the benefit's
// bits.
func (e *Evaluator) maintenanceCost(cfg, extra []*Candidate) float64 {
	total := 0.0
	for _, row := range e.mc {
		for _, c := range cfg {
			total += row[c.ID]
		}
		for _, c := range extra {
			total += row[c.ID]
		}
	}
	return total
}

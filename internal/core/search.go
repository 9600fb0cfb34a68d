package core

import (
	"math"
	"sort"
)

// This file implements the five configuration search algorithms of the
// paper's §VI and §VII-B:
//
//   - searchGreedy: plain greedy 0/1-knapsack approximation on
//     standalone benefits, ignoring index interaction. The baseline the
//     paper shows wasting disk space on redundant indexes.
//   - searchGreedyHeuristic: greedy over whole-configuration benefits
//     with the §VI-A heuristics (site bitmap, improved-benefit and
//     β-bounded size conditions for general indexes).
//   - searchTopDown (lite/full): the §VI-B DAG descent replacing the
//     general index with the lowest ∆B/∆C by its children until the
//     configuration fits the budget.
//   - searchDP: exact 0/1 knapsack by dynamic programming on standalone
//     benefits (optimal modulo index interaction, as in §VII-B).

// searchGreedy adds candidates in order of standalone benefit density
// until the budget is exhausted.
func (a *Advisor) searchGreedy(budget int64) []*Candidate {
	type scored struct {
		c       *Candidate
		density float64
	}
	var items []scored
	for _, c := range a.Candidates.All {
		b := a.eval.StandaloneBenefit(c)
		if b <= 0 || c.SizeBytes > budget {
			continue
		}
		items = append(items, scored{c, b / float64(c.SizeBytes)})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].density != items[j].density {
			return items[i].density > items[j].density
		}
		if items[i].c.SizeBytes != items[j].c.SizeBytes {
			return items[i].c.SizeBytes < items[j].c.SizeBytes
		}
		return items[i].c.ID < items[j].c.ID
	})
	var cfg []*Candidate
	var used int64
	for _, it := range items {
		if used+it.c.SizeBytes <= budget {
			cfg = append(cfg, it.c)
			used += it.c.SizeBytes
		}
	}
	return cfg
}

// searchGreedyHeuristic is greedy search with the paper's heuristics:
// whole-configuration benefit drives the choice (index interaction
// respected), a bitmap of covered predicate sites prevents redundant
// general indexes, and a general index must beat the specifics it
// generalizes without exceeding their total size by more than β.
// Every trial extends the configuration's kept §VI-C split, which is
// extended once per greedy step by the chosen candidate.
func (a *Advisor) searchGreedyHeuristic(budget int64) []*Candidate {
	var cfg keptSplit
	inConfig := make(map[int]bool)
	covered := make(map[string]bool)
	var used int64
	curBenefit := 0.0

	for {
		type scored struct {
			c    *Candidate
			gain float64
		}
		best := scored{}
		for _, c := range a.Candidates.All {
			if inConfig[c.ID] || used+c.SizeBytes > budget {
				continue
			}
			if c.General {
				if !a.generalAdmissible(c, &cfg, covered) {
					continue
				}
			}
			gain := a.eval.extendedBenefit(&cfg, []*Candidate{c}) - curBenefit
			if gain <= 0 {
				continue
			}
			density := gain / float64(c.SizeBytes)
			bestDensity := 0.0
			if best.c != nil {
				bestDensity = best.gain / float64(best.c.SizeBytes)
			}
			if best.c == nil || density > bestDensity ||
				(density == bestDensity && c.ID < best.c.ID) {
				best = scored{c, gain}
			}
		}
		if best.c == nil {
			return cfg.cfg
		}
		a.eval.keep(&cfg, best.c)
		inConfig[best.c.ID] = true
		used += best.c.SizeBytes
		curBenefit += best.gain
		for k := range best.c.SiteKeys {
			covered[k] = true
		}
	}
}

// generalAdmissible applies the §VI-A conditions to a general index:
//
//  1. Bitmap: it must cover at least one workload predicate site that no
//     chosen index covers yet (otherwise it replicates existing ones).
//  2. IB(x_general) >= IB(x_1..x_n) for the specifics it generalizes.
//  3. Size(x_general) <= (1+β) * Σ Size(x_i).
//
// Both benefits extend cfg's kept split. A specific already in cfg is
// added a second time, so its maintenance is charged twice.
func (a *Advisor) generalAdmissible(g *Candidate, cfg *keptSplit, covered map[string]bool) bool {
	news := 0
	for k := range g.SiteKeys {
		if !covered[k] {
			news++
		}
	}
	if len(g.SiteKeys) > 0 && news == 0 {
		return false
	}
	specifics := g.Children
	if len(specifics) == 0 {
		return true
	}
	var sumSize int64
	for _, s := range specifics {
		sumSize += s.SizeBytes
	}
	if float64(g.SizeBytes) > (1+a.Opts.Beta)*float64(sumSize) {
		return false
	}
	ibGeneral := a.eval.extendedBenefit(cfg, []*Candidate{g})
	ibSpecifics := a.eval.extendedBenefit(cfg, specifics)
	return ibGeneral >= ibSpecifics
}

// searchTopDown starts from the most general viable candidates (DAG
// roots) and repeatedly replaces the general index with the smallest
// ∆B/∆C by its children until the configuration fits the budget
// (§VI-B). lite sums standalone benefits; full evaluates whole
// configurations via the optimizer.
func (a *Advisor) searchTopDown(budget int64, full bool) []*Candidate {
	// Preprocessing: drop candidates with zero or negative benefit
	// (high maintenance cost or never used in plans).
	viable := make(map[int]bool)
	for _, c := range a.Candidates.All {
		if a.eval.StandaloneBenefit(c) > 0 {
			viable[c.ID] = true
		}
	}
	cfg := a.viableRoots(viable)

	for totalSize(cfg) > budget {
		type repl struct {
			idx      int
			children []*Candidate
			ratio    float64
			deltaC   int64
		}
		best := repl{idx: -1}
		for i, g := range cfg {
			if !g.General {
				continue
			}
			children := a.viableChildren(g, viable)
			if len(children) == 0 {
				continue
			}
			// Replacement must not duplicate candidates already present.
			children = excluding(children, cfg, g)
			var childSize int64
			for _, ch := range children {
				childSize += ch.SizeBytes
			}
			deltaC := g.SizeBytes - childSize
			if deltaC <= 0 {
				continue // replacement would not shrink the configuration
			}
			var deltaB float64
			if full {
				base := without(cfg, i)
				deltaB = a.eval.ConfigBenefit(append(base[:len(base):len(base)], g)) -
					a.eval.ConfigBenefit(append(base[:len(base):len(base)], children...))
			} else {
				deltaB = a.eval.StandaloneBenefit(g)
				for _, ch := range children {
					deltaB -= a.eval.StandaloneBenefit(ch)
				}
			}
			ratio := deltaB / float64(deltaC)
			if best.idx < 0 || ratio < best.ratio ||
				(ratio == best.ratio && deltaC > best.deltaC) {
				best = repl{idx: i, children: children, ratio: ratio, deltaC: deltaC}
			}
		}
		if best.idx < 0 {
			break // no general candidate left to replace
		}
		next := without(cfg, best.idx)
		next = append(next, best.children...)
		cfg = dedupe(next)
	}

	if totalSize(cfg) > budget {
		// Out of general candidates and still over budget: fall back to
		// greedy over the current configuration (§VI-B; the heuristics
		// are unnecessary since no general indexes remain replaceable).
		cfg = a.greedyOver(cfg, budget)
	}
	return cfg
}

// viableRoots returns the viable candidates with no viable ancestor.
func (a *Advisor) viableRoots(viable map[int]bool) []*Candidate {
	var out []*Candidate
	for _, c := range a.Candidates.All {
		if !viable[c.ID] {
			continue
		}
		if !a.hasViableAncestor(c, viable) {
			out = append(out, c)
		}
	}
	return out
}

func (a *Advisor) hasViableAncestor(c *Candidate, viable map[int]bool) bool {
	for _, p := range c.Parents {
		if viable[p.ID] || a.hasViableAncestor(p, viable) {
			return true
		}
	}
	return false
}

// viableChildren returns the maximal viable candidates below g:
// non-viable children are replaced by their own viable children,
// recursively.
func (a *Advisor) viableChildren(g *Candidate, viable map[int]bool) []*Candidate {
	var out []*Candidate
	seen := make(map[int]bool)
	var descend func(*Candidate)
	descend = func(c *Candidate) {
		for _, ch := range c.Children {
			if seen[ch.ID] {
				continue
			}
			seen[ch.ID] = true
			if viable[ch.ID] {
				out = append(out, ch)
			} else {
				descend(ch)
			}
		}
	}
	descend(g)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// greedyOver picks the subset of cfg with the best standalone benefit
// density that fits the budget.
func (a *Advisor) greedyOver(cfg []*Candidate, budget int64) []*Candidate {
	sorted := append([]*Candidate(nil), cfg...)
	sort.Slice(sorted, func(i, j int) bool {
		di := a.eval.StandaloneBenefit(sorted[i]) / math.Max(1, float64(sorted[i].SizeBytes))
		dj := a.eval.StandaloneBenefit(sorted[j]) / math.Max(1, float64(sorted[j].SizeBytes))
		if di != dj {
			return di > dj
		}
		return sorted[i].ID < sorted[j].ID
	})
	var out []*Candidate
	var used int64
	for _, c := range sorted {
		if used+c.SizeBytes <= budget {
			out = append(out, c)
			used += c.SizeBytes
		}
	}
	return out
}

// searchDP solves the 0/1 knapsack exactly by dynamic programming over
// discretized sizes, using standalone benefits (the paper's "optimal
// solution modulo index interactions", §VII-B). Prohibitively expensive
// at fine granularity, so sizes are bucketed to dpUnits units.
const dpUnits = 4096

func (a *Advisor) searchDP(budget int64) []*Candidate {
	if budget <= 0 {
		return nil
	}
	unit := budget / dpUnits
	if unit < 1 {
		unit = 1
	}
	cap := int(budget / unit)
	type item struct {
		c       *Candidate
		weight  int
		benefit float64
	}
	var items []item
	for _, c := range a.Candidates.All {
		b := a.eval.StandaloneBenefit(c)
		if b <= 0 {
			continue
		}
		w := int((c.SizeBytes + unit - 1) / unit)
		if w > cap {
			continue
		}
		items = append(items, item{c, w, b})
	}
	dp := make([]float64, cap+1)
	// Bit i*(cap+1)+w of take: item i improved capacity w.
	take := NewBitSet(len(items) * (cap + 1))
	for i, it := range items {
		for w := cap; w >= it.weight; w-- {
			if v := dp[w-it.weight] + it.benefit; v > dp[w] {
				dp[w] = v
				take.Set(i*(cap+1) + w)
			}
		}
	}
	var cfg []*Candidate
	w := cap
	for i := len(items) - 1; i >= 0; i-- {
		if take.Has(i*(cap+1) + w) {
			cfg = append(cfg, items[i].c)
			w -= items[i].weight
		}
	}
	return cfg
}

// without returns cfg with index i removed (copy).
func without(cfg []*Candidate, i int) []*Candidate {
	out := make([]*Candidate, 0, len(cfg)-1)
	out = append(out, cfg[:i]...)
	out = append(out, cfg[i+1:]...)
	return out
}

// excluding returns children minus any candidate already in cfg (other
// than g itself).
func excluding(children, cfg []*Candidate, g *Candidate) []*Candidate {
	present := make(map[int]bool, len(cfg))
	for _, c := range cfg {
		if c != g {
			present[c.ID] = true
		}
	}
	var out []*Candidate
	for _, ch := range children {
		if !present[ch.ID] {
			out = append(out, ch)
		}
	}
	return out
}

// dedupe removes duplicate candidates preserving order.
func dedupe(cfg []*Candidate) []*Candidate {
	seen := make(map[int]bool, len(cfg))
	var out []*Candidate
	for _, c := range cfg {
		if !seen[c.ID] {
			seen[c.ID] = true
			out = append(out, c)
		}
	}
	return out
}

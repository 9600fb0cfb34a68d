package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// Candidate is one candidate index in the advisor's search space: a
// definition, its derived (virtual) statistics, its affected statement
// set, and its position in the generalization DAG (paper §V, §VI-B).
type Candidate struct {
	// ID is the candidate's ordinal in the advisor's candidate list.
	ID int
	// Def is the index definition the candidate stands for.
	Def xindex.Definition
	// General marks candidates produced by the generalization step
	// rather than enumerated by the optimizer. The paper's Table IV
	// counts recommended indexes as G (general) vs S (specific) by this
	// flag.
	General bool
	// SizeBytes is the estimated materialized size (from statistics).
	SizeBytes int64
	// Affected is the set of workload statement ordinals whose basic
	// candidate patterns this index covers (paper §VI-C).
	Affected *BitSet
	// SiteKeys are the workload predicate-site keys this index covers,
	// for the greedy heuristic's bitmap.
	SiteKeys map[string]bool
	// Parents are the candidates that generalize this one; Children are
	// the maximal candidates this one generalizes (DAG edges, §VI-B).
	Parents  []*Candidate
	Children []*Candidate

	// standalone caches the candidate's standalone benefit; managed by
	// the evaluator. The once-guard makes the lazy computation safe
	// when concurrent searches share an advisor.
	standaloneOnce sync.Once
	standalone     float64
}

// String renders the candidate like the paper's tables.
func (c *Candidate) String() string {
	tag := "S"
	if c.General {
		tag = "G"
	}
	return fmt.Sprintf("[%s] %s (%d bytes)", tag, c.Def, c.SizeBytes)
}

// Covers reports whether this candidate's index can answer everything
// the other candidate's index can (pattern containment + same type).
func (c *Candidate) Covers(o *Candidate) bool {
	return c.Def.Table == o.Def.Table &&
		c.Def.Type == o.Def.Type &&
		xpath.Contains(c.Def.Pattern, o.Def.Pattern)
}

// CandidateSet is the advisor's search space: basic candidates
// enumerated by the optimizer plus the generalized candidates, with the
// DAG structure over them.
type CandidateSet struct {
	// All lists every candidate; All[i].ID == i.
	All []*Candidate
	// BasicCount is how many of All (a prefix) are basic candidates.
	BasicCount int
	byKey      map[string]*Candidate
	// covers[i][j] is All[i].Covers(All[j]), computed once after
	// generalization for the affected-set propagation and the DAG.
	covers [][]bool
}

// Basic returns the optimizer-enumerated candidates.
func (cs *CandidateSet) Basic() []*Candidate { return cs.All[:cs.BasicCount] }

// Generalized returns the candidates added by generalization.
func (cs *CandidateSet) Generalized() []*Candidate { return cs.All[cs.BasicCount:] }

// Lookup finds a candidate by definition.
func (cs *CandidateSet) Lookup(def xindex.Definition) (*Candidate, bool) {
	c, ok := cs.byKey[def.Key()]
	return c, ok
}

// Roots returns the DAG roots: candidates with no parents. These are
// the starting configuration of the top-down search.
func (cs *CandidateSet) Roots() []*Candidate {
	var out []*Candidate
	for _, c := range cs.All {
		if len(c.Parents) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// enumerateBasic asks the optimizer (Enumerate Indexes mode) for the
// basic candidates of every workload statement and records affected
// sets and site keys. The per-statement Enumerate Indexes calls are
// independent, so they fan out across the advisor's workers; the
// results are merged serially in statement order, which keeps candidate
// IDs (and everything downstream of them) identical at every
// Parallelism level.
func (a *Advisor) enumerateBasic(w *workload.Workload) (*CandidateSet, error) {
	type enumResult struct {
		defs []xindex.Definition
		err  error
	}
	results := make([]enumResult, w.Len())
	a.parallelFor(w.Len(), func(ord int) {
		item := w.Items[ord]
		if item.Stmt.Kind == xquery.Insert {
			return // inserts expose no indexable patterns
		}
		defs, err := a.Opt.EnumerateIndexes(item.Stmt)
		results[ord] = enumResult{defs: defs, err: err}
	})
	cs := &CandidateSet{byKey: make(map[string]*Candidate)}
	var kb [128]byte
	for ord, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for _, def := range r.defs {
			key := def.AppendKey(kb[:0])
			c, ok := cs.byKey[string(key)]
			if !ok {
				stats := a.statsFor(def)
				c = &Candidate{
					ID:        len(cs.All),
					Def:       def,
					SizeBytes: stats.SizeBytes,
					Affected:  NewBitSet(w.Len()),
					SiteKeys:  map[string]bool{def.Pattern.String() + "|" + def.Type.String(): true},
				}
				cs.byKey[string(key)] = c
				cs.All = append(cs.All, c)
			}
			c.Affected.Set(ord)
		}
	}
	cs.BasicCount = len(cs.All)
	return cs, nil
}

// generalizeAll expands the candidate set by iteratively applying the
// pair generalization to every pair of candidates (basic and generated)
// until no new pattern appears (paper §V), then builds the DAG edges.
func (a *Advisor) generalizeAll(cs *CandidateSet) {
	changed := true
	// Keys are built in a stack buffer: a lookup allocates nothing, and
	// only an added candidate's key becomes a string.
	var kb [128]byte
	var pg pairGen
	// Each pass pairs the candidates of the current list. A pair an
	// earlier pass already took yields nothing new (its generalizations
	// are candidates, or equivalent to one, by then), so a pass starts j
	// at the previous pass's length: same pair order, same IDs.
	for prev := 0; changed; {
		changed = false
		n := len(cs.All)
		for i := 0; i < n; i++ {
			for j := max(i+1, prev); j < n; j++ {
				ci, cj := cs.All[i], cs.All[j]
				if ci.Def.Table != cj.Def.Table || ci.Def.Type != cj.Def.Type {
					continue // compatibility check (§V: data type, namespace)
				}
				for _, g := range pg.pair(ci.Def.Pattern, cj.Def.Pattern) {
					def := xindex.Definition{Table: ci.Def.Table, Pattern: g, Type: ci.Def.Type}
					key := def.AppendKey(kb[:0])
					if _, ok := cs.byKey[string(key)]; ok {
						continue
					}
					// Skip generalizations equivalent to an existing
					// candidate's pattern.
					if equivalentExists(cs, def) {
						continue
					}
					def.Pattern.Steps = slices.Clone(g.Steps)
					stats := a.statsFor(def)
					nc := &Candidate{
						ID:        len(cs.All),
						Def:       def,
						General:   true,
						SizeBytes: stats.SizeBytes,
						Affected:  NewBitSet(0),
						SiteKeys:  map[string]bool{},
					}
					cs.byKey[string(key)] = nc
					cs.All = append(cs.All, nc)
					changed = true
				}
			}
		}
		prev = n
	}
	n := len(cs.All)
	cs.covers = make([][]bool, n)
	a.parallelFor(n, func(i int) {
		row := make([]bool, n)
		for j, o := range cs.All {
			row[j] = cs.All[i].Covers(o)
		}
		cs.covers[i] = row
	})
	// Propagate affected sets and site keys: a general candidate
	// affects every statement whose basic patterns it covers.
	for _, g := range cs.All[cs.BasicCount:] {
		for _, b := range cs.Basic() {
			if cs.covers[g.ID][b.ID] {
				g.Affected.Or(b.Affected)
				for k := range b.SiteKeys {
					g.SiteKeys[k] = true
				}
			}
		}
	}
	buildDAG(cs)
}

// equivalentExists reports whether some candidate's pattern is
// equivalent (mutual containment) to def's.
func equivalentExists(cs *CandidateSet, def xindex.Definition) bool {
	for _, c := range cs.All {
		if c.Def.Table == def.Table && c.Def.Type == def.Type &&
			xpath.Equivalent(c.Def.Pattern, def.Pattern) {
			return true
		}
	}
	return false
}

// buildDAG connects each candidate to its maximal covered candidates:
// c's children are candidates strictly covered by c with no
// intermediate candidate between them (paper §VI-B).
func buildDAG(cs *CandidateSet) {
	for _, c := range cs.All {
		c.Parents = nil
		c.Children = nil
	}
	n := len(cs.All)
	strict := func(a, b *Candidate) bool { // a strictly covers b
		return a != b && cs.covers[a.ID][b.ID] && !cs.covers[b.ID][a.ID]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := cs.All[i], cs.All[j]
			if !strict(a, b) {
				continue
			}
			// b is a child of a unless an intermediate m exists with
			// a > m > b.
			intermediate := false
			for k := 0; k < n && !intermediate; k++ {
				m := cs.All[k]
				if m == a || m == b {
					continue
				}
				if strict(a, m) && strict(m, b) {
					intermediate = true
				}
			}
			if !intermediate {
				a.Children = append(a.Children, b)
				b.Parents = append(b.Parents, a)
			}
		}
	}
	for _, c := range cs.All {
		sort.Slice(c.Children, func(i, j int) bool { return c.Children[i].ID < c.Children[j].ID })
		sort.Slice(c.Parents, func(i, j int) bool { return c.Parents[i].ID < c.Parents[j].ID })
	}
}

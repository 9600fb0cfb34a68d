package optimizer

import (
	"math"
	"sync"

	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// CompiledStatement caches everything about one statement that does not
// depend on the index configuration: the extracted predicate sites, the
// per-site pattern statistics, selectivities, and document fractions,
// the estimated matching-document count, and the full-scan base cost.
// Each Evaluate Indexes call during the advisor's search then reduces
// to allocation-light arithmetic over the configuration — the same
// float operations in the same order as uncompiled planning, so plans,
// costs, and call counts are bit-identical.
//
// Compiled statements are cached per (statement, table-stats) pair on
// the optimizer and are safe for concurrent use.
type CompiledStatement struct {
	ts    *xstats.TableStats
	table string
	kind  xquery.Kind

	sites       []PredSite
	siteDocFrac []float64

	// matchingDocs estimates the documents satisfying all predicate
	// sites; docCount and avgNodes snapshot the table statistics the
	// cost formulas read.
	matchingDocs float64
	docCount     float64
	avgNodes     float64
	resultCost   float64
	baseCost     float64

	// siteEvals memoizes, per predicate site, the index-probe
	// evaluation of each candidate definition (matched?, entries
	// scanned, probe cost) — all invariant across configurations.
	mu        sync.RWMutex
	siteEvals []map[defRef]siteEval
}

// defRef identifies an index definition inside a site's evaluation
// cache without string rendering: linear patterns are immutable once
// built, so the identity of their step array plus the key type pins the
// definition. Definitions sharing a step array are by construction the
// same pattern.
type defRef struct {
	steps *xpath.Step
	n     int
	typ   xpath.ValueKind
}

// siteEval is the configuration-invariant part of matching one index
// definition against one predicate site.
type siteEval struct {
	ok      bool // the definition matches the site and has entries
	entries float64
	probe   float64
}

// Compile returns the compiled form of the statement, building and
// caching it on first use. It fails only when the statement's table has
// no collected statistics.
func (o *Optimizer) Compile(stmt *xquery.Statement) (*CompiledStatement, error) {
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		return nil, err
	}
	return o.compile(stmt, ts), nil
}

// maxCompiledStatements bounds the compiled-statement cache. Advisor
// workloads hold tens of statements, but a long-lived engine executing
// freshly parsed statements would otherwise grow the cache by one entry
// per statement forever. Compiled statements are pure caches, so on
// overflow the whole map is flushed and rebuilt on demand.
const maxCompiledStatements = 4096

// compile fetches or builds the statement's compilation against ts.
func (o *Optimizer) compile(stmt *xquery.Statement, ts *xstats.TableStats) *CompiledStatement {
	if v, ok := o.compiled.Load(stmt); ok {
		cs := v.(*CompiledStatement)
		if cs.ts == ts {
			return cs
		}
	}
	cs := newCompiledStatement(stmt, ts)
	// Concurrent compilations of the same statement produce identical
	// values; whichever lands is correct. Only a new statement counts
	// toward the overflow flush: recompiling a known one after its
	// table's statistics moved replaces its entry and holds no more.
	if _, known := o.compiled.Swap(stmt, cs); !known && o.compiledLen.Add(1) > maxCompiledStatements {
		o.compiled.Range(func(k, _ any) bool {
			o.compiled.Delete(k)
			return true
		})
		o.compiledLen.Store(1)
		o.compiled.Store(stmt, cs)
	}
	return cs
}

func newCompiledStatement(stmt *xquery.Statement, ts *xstats.TableStats) *CompiledStatement {
	cs := &CompiledStatement{
		ts:       ts,
		table:    stmt.Table,
		kind:     stmt.Kind,
		sites:    ExtractSites(stmt),
		docCount: float64(ts.DocCount),
		avgNodes: ts.AvgNodesPerDoc(),
	}
	cs.siteDocFrac = make([]float64, len(cs.sites))
	cs.siteEvals = make([]map[defRef]siteEval, len(cs.sites))
	frac := 1.0
	for i, site := range cs.sites {
		siteStats := ts.ForPattern(site.Pattern, site.Lit.Kind)
		sel := siteStats.Selectivity(site.Op, site.Lit)
		perDoc := ts.EntriesPerDoc(siteStats)
		cs.siteDocFrac[i] = clamp01(sel * perDoc)
		frac *= cs.siteDocFrac[i]
	}
	cs.matchingDocs = frac * cs.docCount
	cs.resultCost = cs.matchingDocs * CostPerResultNode * math.Max(1, float64(len(stmt.Returns)))

	switch stmt.Kind {
	case xquery.Insert:
		n := 0.0
		if stmt.Doc != nil {
			n = float64(stmt.Doc.Len())
		}
		cs.baseCost = CostStatementOverhead + n*CostPerModifiedNode
	case xquery.Delete, xquery.Update:
		cs.baseCost = CostStatementOverhead + float64(ts.TotalNodes)*CostPerScannedNode +
			cs.matchingDocs*cs.avgNodes*CostPerModifiedNode
	default:
		cs.baseCost = CostStatementOverhead + float64(ts.TotalNodes)*CostPerScannedNode +
			cs.resultCost
	}
	return cs
}

// siteEvalFor returns the memoized (matched, entries, probe) evaluation
// of one definition against one site. The definition's table is assumed
// to already match the statement's.
func (cs *CompiledStatement) siteEvalFor(si int, def xindex.Definition) siteEval {
	if len(def.Pattern.Steps) == 0 {
		return cs.computeSiteEval(si, def)
	}
	ref := defRef{steps: &def.Pattern.Steps[0], n: len(def.Pattern.Steps), typ: def.Type}
	cs.mu.RLock()
	ev, ok := cs.siteEvals[si][ref]
	cs.mu.RUnlock()
	if ok {
		return ev
	}
	ev = cs.computeSiteEval(si, def)
	cs.mu.Lock()
	if cs.siteEvals[si] == nil {
		cs.siteEvals[si] = make(map[defRef]siteEval)
	}
	cs.siteEvals[si][ref] = ev
	cs.mu.Unlock()
	return ev
}

func (cs *CompiledStatement) computeSiteEval(si int, def xindex.Definition) siteEval {
	site := cs.sites[si]
	if !def.Matches(site.Pattern, site.Lit.Kind) {
		return siteEval{}
	}
	idxStats := cs.ts.ForPattern(def.Pattern, def.Type)
	if idxStats.Entries == 0 {
		return siteEval{}
	}
	sel := idxStats.Selectivity(site.Op, site.Lit)
	entries := sel * float64(idxStats.Entries)
	probe := float64(idxStats.Levels)*CostPerIndexPage + entries*CostPerIndexEntry
	return siteEval{ok: true, entries: entries, probe: probe}
}

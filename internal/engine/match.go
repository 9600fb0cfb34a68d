package engine

import (
	"fmt"
	"sort"
	"time"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// The plan nodes a query trace pairs estimated with actual
// cardinalities for, named after their DB2 EXPLAIN operators.
const (
	opTbScan = "TBSCAN"
	opIxScan = "IXSCAN"
	opFetch  = "FETCH"
	opFilter = "FILTER"
)

// matchDocs is the plan interpreter: it finds the documents satisfying
// the statement's normalized path as of the transaction's snapshot,
// through its uncommitted writes, and returns the finished match pass —
// the matching documents of a mutation, the bound nodes of a query. A
// nil plan is chosen here, by the statement's one optimizer call. An
// index plan runs as index ANDing → candidate merge → fetch → verify; a
// scan plan visits every document visible in the snapshot. With a trace
// attached each phase records its span and, for every costed plan node,
// the optimizer's estimated cardinality next to the observed actual.
//
// The decline rule: an index answers as of a stamp only if it maintains
// itself from the change feed (born/died stamps are recorded inside the
// publish section; a detached xindex.Build index carries none) and only
// from its build's capture instant on. An index plan naming an index
// that cannot answer as of the snapshot runs as a scan of the snapshot.
//
// The overlay layers differently over the two routes because index
// entries reflect committed pre-images: on the index route documents
// this transaction replaced are verified against their post-images
// whether or not the index proposed them (a buffered update may move a
// document into the predicate's range). Every candidate is re-verified
// against the full path — index ANDing over linear predicate sites
// over-approximates the match set.
func (tx *Txn) matchDocs(stmt *xquery.Statement, plan *optimizer.Plan, tv *storage.TableView, st *Stats, qt *obs.QueryTrace) (*matchPass, error) {
	ov := tx.overlays[stmt.Table] // nil until the transaction writes the table
	var clock time.Time
	if plan == nil {
		if qt != nil {
			clock = time.Now()
		}
		var err error
		plan, err = tx.eng.opt.EvaluateIndexes(stmt, tx.view.Definitions())
		if qt != nil {
			qt.Span("optimize", time.Since(clock), 0)
		}
		if err != nil {
			return nil, err
		}
	}
	var buf [4]*xindex.Index
	indexes, declined := buf[:0], false
	for _, acc := range plan.Accesses {
		idx, ok := tx.view.Get(acc.Index)
		if !ok {
			return nil, fmt.Errorf("engine: plan references unmaterialized index %s", acc.Index)
		}
		declined = declined || !idx.SelfMaintained() || idx.VersionedSince() > tv.LSN()
		indexes = append(indexes, idx)
	}

	pass := newMatchPass(tv.Programs(), stmt)
	defer pass.finish(st)
	if qt != nil {
		clock = time.Now()
	}
	sourceOp, sourced := opTbScan, 0 // the node feeding the filter, and the documents it produced
	if declined || !plan.UsesIndexes() {
		sourced = tv.Scan(func(d *xmltree.Document) bool {
			if d = ov.current(d); d != nil {
				pass.visit(d)
			}
			return true
		})
	} else {
		// Index ANDing: intersect candidate document sets from each access.
		var cards []obs.NodeCard
		var candidates map[int64]bool
		for i, acc := range plan.Accesses {
			st.IndexProbes++
			docSet := make(map[int64]bool)
			entries := int64(indexes[i].ScanAsOf(acc.Site.Op, acc.Site.Lit, tv.LSN(), func(r xindex.Ref) bool {
				docSet[r.Doc] = true
				return true
			}))
			st.IndexEntriesRead += entries
			if qt != nil {
				cards = append(cards, obs.NodeCard{
					Op: opIxScan, Site: acc.Site.Key(),
					Est: int64(acc.EntriesScanned + 0.5), Actual: entries,
				})
			}
			if candidates == nil {
				candidates = docSet
			} else {
				for id := range candidates {
					if !docSet[id] {
						delete(candidates, id)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
		}
		if qt != nil {
			span := qt.Span("index scan", time.Since(clock), int64(len(candidates)))
			qt.AddNodes(span, cards...)
			clock = time.Now()
		}
		// Merge the candidates with this transaction's replaced documents
		// in document-ID order, so the result order is deterministic.
		ids := make([]int64, 0, len(candidates))
		for id := range candidates {
			if ov == nil || !(ov.deleted[id] || ov.replaced[id] != nil) {
				ids = append(ids, id)
			}
		}
		if ov != nil {
			for id := range ov.replaced {
				if !ov.deleted[id] {
					ids = append(ids, id)
				}
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if ov != nil && ov.replaced[id] != nil {
				pass.visit(ov.replaced[id])
			} else if doc, ok := tv.Get(id); ok {
				st.DocsFetched++
				pass.visit(doc) // verification re-evaluates the path
			}
		}
		sourceOp, sourced = opFetch, len(ids)
	}
	if ov != nil {
		for _, d := range ov.inserted {
			pass.visit(d)
		}
	}
	if qt != nil {
		span := qt.Span("xpath verify", time.Since(clock), pass.hits)
		site := stmt.NormalizedKey()
		if !declined {
			// A declined index plan ran as a scan the optimizer never
			// costed: its candidate estimate is for the index intersection,
			// and logging it against the scanned count would feed the
			// calibration loop a false estimation error.
			qt.AddNodes(span, obs.NodeCard{Op: sourceOp, Site: site, Est: int64(plan.EstCandidateDocs + 0.5), Actual: int64(sourced)})
		}
		qt.AddNodes(span, obs.NodeCard{Op: opFilter, Site: site, Est: int64(plan.EstMatchingDocs + 0.5), Actual: pass.hits})
	}
	return pass, nil
}

// matchPass is one statement's pass over candidate documents: the one
// place a document is tested against the statement's normalized path,
// however the interpreter found the candidate (table scan, index
// candidates, a transaction's overlay). A query keeps the bound nodes
// of each matching document from the same evaluation that decided the
// match; a mutation keeps the matching documents.
//
// The path runs as a compiled program over the table's path dictionary,
// from the table's xpath.ProgramCache. The matcher itself answers with
// xpath.Eval the documents a program cannot: those not on the table's dictionary — a
// transaction's uncommitted inserts and replacements — and every
// document when the path exceeds the program step budget.
type matchPass struct {
	m     *xpath.Matcher
	query bool
	docs  []*xmltree.Document // matching documents, for mutations
	refs  []xindex.Ref        // bound nodes, for queries
	hits  int64               // matching documents
	ids   []xmltree.NodeID    // Select's buffer, reused across documents
}

func newMatchPass(programs *xpath.ProgramCache, stmt *xquery.Statement) *matchPass {
	return &matchPass{
		m:     programs.Bind(stmt.NormalizedPath()),
		query: stmt.Kind == xquery.Query,
	}
}

// visit tests one document.
func (p *matchPass) visit(doc *xmltree.Document) {
	if !p.query {
		if p.m.Exists(doc) {
			p.hits++
			p.docs = append(p.docs, doc)
		}
		return
	}
	p.ids = p.m.Select(doc, p.ids[:0])
	if len(p.ids) == 0 {
		return
	}
	p.hits++
	for _, id := range p.ids {
		p.refs = append(p.refs, xindex.Ref{Doc: doc.DocID, Node: id})
	}
}

// finish charges the nodes the pass examined to the statement.
func (p *matchPass) finish(st *Stats) {
	st.NodesScanned += p.m.Visited
	st.ResultCount += int64(len(p.refs))
}

package engine

import (
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// matchPass is one statement's pass over candidate documents: the one
// place a document is tested against the statement's normalized path,
// whichever executor found the candidate and however (table scan, index
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

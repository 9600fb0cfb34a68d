package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// This file holds the repository's strongest end-to-end property test:
// for random databases, random index configurations, and random
// queries, the engine's index plans must return exactly the documents
// and nodes a full scan returns. This exercises the whole stack at
// once — XPath evaluation, pattern containment (index matching), the
// optimizer's plan choice, B+-tree range scans, key encoding, and
// fetch-and-verify execution. A bug in any layer surfaces as a result
// mismatch. The same queries then run inside a transaction: a read-only
// one must agree with the auto-commit run result for result and counter
// for counter, and one holding random buffered writes must agree with a
// brute-force xpath.Eval over snapshot plus overlay.

// randomEquivDB builds a small random database over a fixed vocabulary.
func randomEquivDB(r *rand.Rand) (*storage.Database, *storage.Table) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	names := []string{"a", "b", "c", "d"}
	values := []string{"u", "v", "w", "1", "2", "7.5"}
	docs := 10 + r.Intn(20)
	for d := 0; d < docs; d++ {
		b := xmltree.NewBuilder()
		var gen func(depth int)
		gen = func(depth int) {
			b.Begin(names[r.Intn(len(names))])
			if r.Intn(4) == 0 {
				b.Attr("k", values[r.Intn(len(values))])
			}
			if depth < 3 {
				for i := 0; i < r.Intn(3); i++ {
					gen(depth + 1)
				}
			}
			if r.Intn(2) == 0 {
				b.Text(values[r.Intn(len(values))])
			}
			b.End()
		}
		b.Begin("root")
		for i := 0; i < 1+r.Intn(3); i++ {
			gen(1)
		}
		b.End()
		if _, err := db.Load("T", b.Document()); err != nil {
			panic(err)
		}
	}
	return db, tbl
}

// randomEquivQuery builds a bare-path query with a random predicate.
func randomEquivQuery(r *rand.Rand) string {
	names := []string{"a", "b", "c", "d"}
	// A relative predicate path: the first step bare, later steps with
	// a child or descendant separator.
	rel := ""
	for i := 0; i < r.Intn(3); i++ {
		name := names[r.Intn(len(names))]
		if r.Intn(5) == 0 {
			name = "*"
		}
		if rel == "" {
			rel = name
		} else if r.Intn(3) == 0 {
			rel += "//" + name
		} else {
			rel += "/" + name
		}
	}
	leaf := names[r.Intn(len(names))]
	if rel != "" {
		leaf = rel + "/" + leaf
	}
	var pred string
	switch r.Intn(4) {
	case 0:
		pred = fmt.Sprintf(`%s="%s"`, leaf, []string{"u", "v", "w"}[r.Intn(3)])
	case 1:
		pred = fmt.Sprintf(`%s>%d`, leaf, r.Intn(5))
	case 2:
		pred = fmt.Sprintf(`%s<=%g`, leaf, float64(r.Intn(10))/2)
	default:
		pred = fmt.Sprintf(`%s!="%s"`, leaf, "u")
	}
	return fmt.Sprintf("T('DOC')/root[%s]", pred)
}

// randomEquivIndexes builds a random set of index definitions.
func randomEquivIndexes(r *rand.Rand) []xindex.Definition {
	patterns := []string{
		"//*", "/root//*", "/root/a//*", "//a", "//b", "//c", "//d",
		"/root/*", "/root/a/b", "/root//c", "//a/b", "//@k",
	}
	var out []xindex.Definition
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		kind := xpath.StringVal
		if r.Intn(2) == 0 {
			kind = xpath.NumberVal
		}
		out = append(out, xindex.Definition{
			Table:   "T",
			Pattern: xpath.MustParsePattern(patterns[r.Intn(len(patterns))]),
			Type:    kind,
		})
	}
	return out
}

// overlayModel is the brute-force oracle for a transaction's view of
// table T: the snapshot's documents with the transaction's buffered
// writes applied by hand, every predicate answered by xpath.Eval.
type overlayModel struct {
	docs []*xmltree.Document // committed documents in ID order, then the transaction's inserts
	prov int64               // last provisional ID handed out
}

func (m *overlayModel) apply(stmt *xquery.Statement) {
	switch stmt.Kind {
	case xquery.Insert:
		d := cloneDoc(stmt.Doc)
		m.prov--
		d.DocID = m.prov
		m.docs = append(m.docs, d)
	case xquery.Delete:
		var keep []*xmltree.Document
		for _, d := range m.docs {
			if len(xpath.Eval(d, stmt.NormalizedPath())) == 0 {
				keep = append(keep, d)
			}
		}
		m.docs = keep
	case xquery.Update:
		for i, d := range m.docs {
			if len(xpath.Eval(d, stmt.NormalizedPath())) == 0 {
				continue
			}
			post := cloneDoc(d)
			post.DocID = d.DocID
			for _, id := range xpath.Eval(d, xpath.Concat(stmt.Match.StripPreds(), stmt.SetPath)) {
				setNodeText(post, id, stmt.SetValue)
			}
			m.docs[i] = post
		}
	}
}

func (m *overlayModel) query(stmt *xquery.Statement) []xindex.Ref {
	var refs []xindex.Ref
	for _, d := range m.docs {
		for _, id := range xpath.Eval(d, stmt.NormalizedPath()) {
			refs = append(refs, xindex.Ref{Doc: d.DocID, Node: id})
		}
	}
	return refs
}

// randomEquivWrite builds a random buffered write: an insert, a delete,
// or an update that moves documents across the a-predicates' ranges.
func randomEquivWrite(r *rand.Rand) string {
	val := func() string { return []string{"u", "v", "w", "1", "7.5"}[r.Intn(5)] }
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf(`insert into T value <root><a>%s</a><b k="%d"><c>%d</c></b></root>`, val(), r.Intn(5), r.Intn(10))
	case 1:
		return fmt.Sprintf(`delete from T where /root[a="%s"]`, val())
	default:
		return fmt.Sprintf(`update T set a = "%s" where /root[a="%s"]`, val(), val())
	}
}

func TestPropertyIndexPlansEquivalentToScans(t *testing.T) {
	var indexProbes int64 // the index route must actually run
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, tbl := randomEquivDB(r)
		opt := optimizer.New(db, optimizer.CollectStats(db))

		// Baseline engine: no indexes.
		scanEng := New(db, opt, NewCatalog())

		// Indexed engine: random real configuration, feed-maintained (the
		// only kind the engine probes).
		cat := NewCatalog()
		for _, def := range randomEquivIndexes(r) {
			idx, err := xindex.BuildOnline(tbl, def)
			if err != nil {
				t.Logf("seed %d: online build: %v", seed, err)
				return false
			}
			defer idx.Release()
			cat.Add(idx)
		}
		idxEng := New(db, opt, cat)

		// One transaction holding random buffered writes, and the oracle
		// for what it must see. It is never committed, so the database
		// stays quiescent for the comparison with the scan baseline.
		writer := idxEng.Begin()
		defer writer.Rollback()
		model := &overlayModel{}
		tbl.Scan(func(d *xmltree.Document) bool { model.docs = append(model.docs, d); return true })
		for w := 0; w < 1+r.Intn(6); w++ {
			stmt := xquery.MustParse(randomEquivWrite(r))
			if _, _, err := writer.Execute(stmt); err != nil {
				t.Logf("seed %d: buffered write %q: %v", seed, stmt.Raw, err)
				return false
			}
			model.apply(stmt)
		}

		for q := 0; q < 8; q++ {
			text := randomEquivQuery(r)
			stmt, err := xquery.Parse(text)
			if err != nil {
				t.Logf("seed %d: parse %q: %v", seed, text, err)
				return false
			}
			want, _, err := scanEng.Execute(stmt)
			if err != nil {
				t.Logf("seed %d: scan exec: %v", seed, err)
				return false
			}
			auto, autoSt, err := idxEng.Execute(stmt)
			if err != nil {
				t.Logf("seed %d: index exec: %v", seed, err)
				return false
			}
			reader := idxEng.Begin()
			inTxn, txSt, err := reader.Execute(stmt)
			reader.Rollback()
			if err != nil {
				t.Logf("seed %d: in-transaction exec: %v", seed, err)
				return false
			}
			autoSt.Elapsed, txSt.Elapsed = 0, 0
			if !slices.Equal(auto, want) || !slices.Equal(inTxn, want) || autoSt != txSt {
				t.Logf("seed %d query %q: auto-commit %d refs %+v, in-transaction %d refs %+v, scan %d refs",
					seed, text, len(auto), autoSt, len(inTxn), txSt, len(want))
				return false
			}
			indexProbes += autoSt.IndexProbes

			// Snapshot plus overlay against brute force.
			got, _, err := writer.Execute(stmt)
			if err != nil {
				t.Logf("seed %d: overlay exec: %v", seed, err)
				return false
			}
			if oracle := model.query(stmt); !slices.Equal(got, oracle) {
				t.Logf("seed %d query %q: transaction sees %v, brute force over snapshot+overlay %v",
					seed, text, got, oracle)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if indexProbes == 0 {
		t.Error("no query took the snapshot index route; the property checked only scans")
	}
}

// TestPropertyDMLKeepsIndexesConsistent: after random inserts, deletes
// and updates through the engine, every catalog index — maintained by
// the change feed alone — holds exactly the entries of a fresh build.
func TestPropertyDMLKeepsIndexesConsistent(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, tbl := randomEquivDB(r)
		opt := optimizer.New(db, optimizer.CollectStats(db))
		cat := NewCatalog()
		defs := randomEquivIndexes(r)
		for _, def := range defs {
			idx, err := xindex.BuildOnline(tbl, def)
			if err != nil {
				return false
			}
			defer idx.Release()
			cat.Add(idx)
		}
		eng := New(db, opt, cat)
		for op := 0; op < 15; op++ {
			if _, _, err := eng.Execute(xquery.MustParse(randomEquivWrite(r))); err != nil {
				return false
			}
		}
		for _, def := range defs {
			maintained, ok := cat.Get(def)
			if !ok {
				return false
			}
			fresh, err := xindex.Build(tbl, def)
			if err != nil {
				return false
			}
			if !sameContent(maintained, fresh) {
				t.Logf("seed %d: index %s maintained %d entries, rebuild %d, or same count and different content",
					seed, def, maintained.Entries(), fresh.Entries())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

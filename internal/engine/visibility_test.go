package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// traceShape renders what of a trace must not depend on who opened the
// transaction: the span names in order, and each plan node's operator
// and estimate.
func traceShape(qt *obs.QueryTrace) []string {
	var out []string
	for _, sp := range qt.Spans {
		out = append(out, sp.Name)
		for _, n := range sp.Nodes {
			out = append(out, fmt.Sprintf("  %s est=%d", n.Op, n.Est))
		}
	}
	return out
}

// TestTraceShapeSameAutoCommitAndInTxn runs one statement auto-commit
// (Engine) and inside an explicit transaction (Txn) and requires the
// same spans in the same order carrying the same operators and
// estimates, the same results and the same counters — there is one
// interpreter under one visibility rule, so nothing else is possible —
// for an index plan, a scan plan, and a DML scan, which carries the
// TbScan and Filter estimates.
func TestTraceShapeSameAutoCommitAndInTxn(t *testing.T) {
	db, opt, eng, cat := newFixture(t, 200)
	buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	tracer := obs.NewTracer(16)

	for _, tc := range []struct {
		name, raw string
		want      []string // operators, in order
	}{
		{"index plan", eq1, []string{optimizer.OpIxScan, optimizer.OpFetch, optimizer.OpFilter}},
		{"scan plan", `SECURITY('SDOC')/Security[Yield>4.5]`, []string{optimizer.OpTbScan, optimizer.OpFilter}},
	} {
		stmt := xquery.MustParse(tc.raw)
		auto, inTxn := tracer.Begin(tc.raw), tracer.Begin(tc.raw)
		autoRefs, autoSt, err := eng.ExecuteTraced(stmt, auto)
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.Begin()
		txRefs, txSt, err := tx.ExecuteTraced(stmt, inTxn)
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(traceShape(inTxn)), fmt.Sprint(traceShape(auto)); got != want {
			t.Errorf("%s: in-transaction trace %v, auto-commit trace %v", tc.name, got, want)
		}
		var ops []string
		for _, n := range auto.Nodes() {
			ops = append(ops, n.Op)
		}
		if fmt.Sprint(ops) != fmt.Sprint(tc.want) {
			t.Errorf("%s: plan nodes %v, want %v", tc.name, ops, tc.want)
		}
		if fmt.Sprint(autoRefs) != fmt.Sprint(txRefs) || len(autoRefs) == 0 {
			t.Errorf("%s: auto-commit refs %v, in-transaction refs %v", tc.name, autoRefs, txRefs)
		}
		autoSt.Elapsed, txSt.Elapsed = 0, 0
		if autoSt != txSt {
			t.Errorf("%s: auto-commit stats %+v, in-transaction stats %+v", tc.name, autoSt, txSt)
		}
	}

	// A DML scan: the delete's predicate has no index, and its plan is
	// the same one the optimizer hands a query.
	del := xquery.MustParse(`delete from SECURITY where /Security[Yield>9.5]`)
	plan, err := opt.EvaluateIndexes(del, cat.Definitions())
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.NodeCard{
		{Op: optimizer.OpTbScan, Site: del.NormalizedKey(), Est: int64(plan.EstCandidateDocs + 0.5), Actual: 200},
		{Op: optimizer.OpFilter, Site: del.NormalizedKey(), Est: int64(plan.EstMatchingDocs + 0.5), Actual: 8},
	}
	inTxn := tracer.Begin(del.Raw)
	tx := eng.Begin()
	_, st, err := tx.ExecuteTraced(del, inTxn)
	tx.Rollback()
	if err != nil || st.DocsModified == 0 {
		t.Fatalf("traced delete: %+v, %v", st, err)
	}
	auto := tracer.Begin(del.Raw) // the rollback left all 8 for the auto-commit run
	if _, _, err := eng.ExecuteTraced(del, auto); err != nil {
		t.Fatal(err)
	}
	for name, qt := range map[string]*obs.QueryTrace{"in-transaction": inTxn, "auto-commit": auto} {
		if got := qt.Nodes(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s DML scan cards %+v, want %+v", name, got, want)
		}
	}
}

// TestDeclinesIndexesThatCannotAnswerTheSnapshot pins the decline rule
// for a plain query and for a transaction alike: the statement scans its
// snapshot rather than probe an index that is detached (xindex.Build) or
// younger than the snapshot, still answers correctly, and logs no TbScan
// estimate for the scan the optimizer never costed; it probes the index
// otherwise.
func TestDeclinesIndexesThatCannotAnswerTheSnapshot(t *testing.T) {
	db, _, eng, cat := newFixture(t, 100)
	tbl, _ := db.Table("SECURITY")
	stmt := xquery.MustParse(eq1)
	probes := func(run func(*xquery.Statement, *obs.QueryTrace) ([]xindex.Ref, Stats, error), wantCards ...string) int64 {
		t.Helper()
		qt := obs.NewTracer(1).Begin(eq1)
		refs, st, err := run(stmt, qt)
		if err != nil || len(refs) != 1 {
			t.Fatalf("refs %v, err %v", refs, err)
		}
		var ops []string
		for _, n := range qt.Nodes() {
			ops = append(ops, n.Op)
		}
		if fmt.Sprint(ops) != fmt.Sprint(wantCards) {
			t.Errorf("logged cards %v, want %v", ops, wantCards)
		}
		return st.IndexProbes
	}
	declined := []string{optimizer.OpFilter}
	probed := []string{optimizer.OpIxScan, optimizer.OpFetch, optimizer.OpFilter}

	old := eng.Begin() // pinned before any index exists
	defer old.Rollback()
	detached, err := xindex.Build(tbl, xindex.Definition{
		Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(detached)
	if n := probes(eng.ExecuteTraced, declined...); n != 0 {
		t.Errorf("plain query probed a detached index (%d probes)", n)
	}
	tx := eng.Begin()
	if n := probes(tx.ExecuteTraced, declined...); n != 0 {
		t.Errorf("transaction probed a detached index (%d probes)", n)
	}
	tx.Rollback()
	cat.Drop(detached.Def)

	// An online build that captures while a commit is between its stamp
	// and its publish cannot answer the watermark: the commit's delete
	// events, had it any, reached the table before the index subscribed
	// and left no tombs. The log hook's append step runs exactly there.
	writer := eng.Begin()
	if _, _, err := writer.Execute(xquery.MustParse(`insert into SECURITY value <Security><Symbol>LATER</Symbol></Security>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit(func([]storage.TxOp) (func(uint64) (uint64, error), error) {
		return func(stamp uint64) (uint64, error) {
			buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
			if n := probes(eng.ExecuteTraced, declined...); n != 0 {
				t.Errorf("plain query at stamp %d probed an index versioned since %d (%d probes)", stamp-1, stamp, n)
			}
			return 0, nil
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := probes(eng.ExecuteTraced, probed...); n != 1 {
		t.Errorf("plain query made %d probes of an online index older than its snapshot, want 1", n)
	}
	fresh := eng.Begin()
	defer fresh.Rollback()
	if n := probes(fresh.ExecuteTraced, probed...); n != 1 {
		t.Errorf("transaction made %d probes of an online index older than its snapshot, want 1", n)
	}
	old.view = cat.View() // the old snapshot meets the younger index
	if n := probes(old.ExecuteTraced, declined...); n != 0 {
		t.Errorf("transaction probed an index younger than its snapshot (%d probes)", n)
	}
}

// hookedStats is a statistics source that runs a callback, or fails,
// when the optimizer asks for statistics — the one point inside a
// statement (after its snapshot is pinned, before it commits) where a
// test can deterministically interleave another commit.
type hookedStats struct {
	stats map[string]*xstats.TableStats
	hook  func()
	err   error
}

func (h *hookedStats) TableStats(table string) (*xstats.TableStats, error) {
	if h.err != nil {
		return nil, h.err
	}
	if hook := h.hook; hook != nil {
		h.hook = nil
		hook()
	}
	return h.stats[table], nil
}

// TestExecuteMutationSurfacesConflict: Engine.Execute of a mutation is
// an auto-commit transaction, so when another commit takes the document
// between its snapshot and its commit it fails with storage.ErrConflict
// and applies nothing.
func TestExecuteMutationSurfacesConflict(t *testing.T) {
	db, _, _, _ := newFixture(t, 20)
	src := &hookedStats{stats: optimizer.CollectStats(db)}
	eng := New(db, optimizer.NewWithSource(db, src), NewCatalog())
	winner := xquery.MustParse(`update SECURITY set Yield = 11.5 where /Security[Symbol="S00003"]`)
	loser := xquery.MustParse(`update SECURITY set Yield = 22.5 where /Security[Symbol="S00003"]`)

	src.hook = func() {
		if _, _, err := eng.Execute(winner); err != nil {
			t.Errorf("interleaved commit: %v", err)
		}
	}
	if _, _, err := eng.Execute(loser); !errors.Is(err, storage.ErrConflict) {
		t.Fatalf("stale-snapshot update err = %v, want storage.ErrConflict", err)
	}
	for yield, want := range map[string]int{"11.5": 1, "22.5": 0} {
		refs, _, err := eng.Execute(xquery.MustParse(`SECURITY('SDOC')/Security[Yield=` + yield + `]`))
		if err != nil || len(refs) != want {
			t.Errorf("Yield=%s: %d documents (err %v), want %d", yield, len(refs), err, want)
		}
	}
	// The winner's replace is the table's only change since the 20
	// fixture inserts: one DocRemoved + DocInserted pair.
	if tbl, _ := db.Table("SECURITY"); tbl.Version() != 20+2 {
		t.Errorf("table version %d after the conflict, want %d", tbl.Version(), 20+2)
	}
}

// TestPlanningErrorReturned: a planning error fails the statement, auto-
// commit or inside a transaction, instead of falling back to a scan.
func TestPlanningErrorReturned(t *testing.T) {
	db, _, _, _ := newFixture(t, 10)
	boom := errors.New("no statistics today")
	eng := New(db, optimizer.NewWithSource(db, &hookedStats{err: boom}), NewCatalog())
	del := xquery.MustParse(`delete from SECURITY where /Security[Symbol="S00003"]`)
	if _, _, err := eng.Execute(xquery.MustParse(eq1)); !errors.Is(err, boom) {
		t.Errorf("plain query err = %v, want the planning error", err)
	}
	tx := eng.Begin()
	defer tx.Rollback()
	if _, _, err := tx.Execute(del); !errors.Is(err, boom) {
		t.Errorf("in-transaction delete err = %v, want the planning error", err)
	}
	// An insert has no match phase and never plans.
	if _, _, err := tx.Execute(xquery.MustParse(`insert into SECURITY value <Security><Symbol>NEW</Symbol></Security>`)); err != nil {
		t.Errorf("insert consulted the optimizer: %v", err)
	}
}

// TestAutoCommitQueriesSeeOneSnapshot: a writer moves a flag value
// between two documents inside one transaction, so exactly one document
// carries it after every commit. Plain Engine.Execute queries racing the
// writer — through the index and through a scan — read one pinned
// snapshot each, so they must always find exactly one; reading live
// state between probe and fetch could find none or both.
func TestAutoCommitQueriesSeeOneSnapshot(t *testing.T) {
	db, opt, idxEng, cat := newFixture(t, 50)
	buildIndex(t, db, cat, "/Security/Yield", xpath.NumberVal)
	scanEng := New(db, opt, NewCatalog())
	flagged := xquery.MustParse(`SECURITY('SDOC')/Security[Yield=77.5]`)
	move := func(from, to string) {
		tx := idxEng.Begin()
		for _, raw := range []string{
			`update SECURITY set Yield = 77.5 where /Security[Symbol="` + to + `"]`,
			`update SECURITY set Yield = 1.5 where /Security[Symbol="` + from + `"]`,
		} {
			if _, st, err := tx.Execute(xquery.MustParse(raw)); err != nil || st.DocsModified != 1 {
				t.Errorf("%s: %+v, %v", raw, st, err)
			}
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Errorf("move %s -> %s: %v", from, to, err)
		}
	}
	move("S00000", "S00001")

	var done atomic.Bool
	var wg sync.WaitGroup
	for _, route := range []struct {
		name   string
		eng    *Engine
		probes int64
	}{{"index", idxEng, 1}, {"scan", scanEng, 0}} {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50 || !done.Load(); i++ {
					refs, st, err := route.eng.Execute(flagged)
					if err != nil || len(refs) != 1 || st.IndexProbes != route.probes {
						t.Errorf("%s route saw %d flagged documents (stats %+v, err %v), want exactly 1", route.name, len(refs), st, err)
						return
					}
				}
			}()
		}
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			move("S00001", "S00002")
		} else {
			move("S00002", "S00001")
		}
	}
	done.Store(true)
	wg.Wait()
}

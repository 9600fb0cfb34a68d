package engine

import (
	"errors"
	"fmt"
	"testing"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// buildOnline materializes a self-maintained index — the only kind the
// snapshot reader accepts — into cat.
func buildOnline(t testing.TB, db *storage.Database, cat *Catalog, pattern string, kind xpath.ValueKind) {
	t.Helper()
	tbl, err := db.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := xindex.BuildOnline(tbl, xindex.Definition{
		Table: "SECURITY", Pattern: xpath.MustParsePattern(pattern), Type: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Release)
	cat.Add(idx)
}

// traceShape renders what of a trace must not depend on the reader: the
// span names in order, and each plan node's operator and estimate.
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

// TestTraceShapeSameUnderBothReaders runs one statement through the
// live reader (Engine) and the snapshot reader (Txn) and requires the
// same spans in the same order carrying the same operators and
// estimates — there is one interpreter, so nothing else is possible —
// for an index plan, a scan plan, and a DML scan, which now carries the
// TbScan and Filter estimates the transaction's scan path used to drop.
func TestTraceShapeSameUnderBothReaders(t *testing.T) {
	db, opt, eng, cat := newFixture(t, 200)
	buildOnline(t, db, cat, "/Security/Symbol", xpath.StringVal)
	tracer := obs.NewTracer(16)

	for _, tc := range []struct {
		name, raw string
		want      []string // operators, in order
	}{
		{"index plan", eq1, []string{optimizer.OpIxScan, optimizer.OpFetch, optimizer.OpFilter}},
		{"scan plan", `SECURITY('SDOC')/Security[Yield>4.5]`, []string{optimizer.OpTbScan, optimizer.OpFilter}},
	} {
		stmt := xquery.MustParse(tc.raw)
		live, snap := tracer.Begin(tc.raw), tracer.Begin(tc.raw)
		liveRefs, liveSt, err := eng.ExecuteTraced(stmt, live)
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.Begin()
		snapRefs, snapSt, err := tx.ExecuteTraced(stmt, snap)
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(traceShape(snap)), fmt.Sprint(traceShape(live)); got != want {
			t.Errorf("%s: snapshot reader trace %v, live reader trace %v", tc.name, got, want)
		}
		var ops []string
		for _, n := range live.Nodes() {
			ops = append(ops, n.Op)
		}
		if fmt.Sprint(ops) != fmt.Sprint(tc.want) {
			t.Errorf("%s: plan nodes %v, want %v", tc.name, ops, tc.want)
		}
		if fmt.Sprint(liveRefs) != fmt.Sprint(snapRefs) || len(liveRefs) == 0 {
			t.Errorf("%s: live refs %v, snapshot refs %v", tc.name, liveRefs, snapRefs)
		}
		liveSt.Elapsed, snapSt.Elapsed = 0, 0
		if liveSt != snapSt {
			t.Errorf("%s: live stats %+v, snapshot stats %+v", tc.name, liveSt, snapSt)
		}
	}

	// A DML scan: the delete's predicate has no index, and its plan is
	// the same one the optimizer hands a query.
	del := xquery.MustParse(`delete from SECURITY where /Security[Yield>9.5]`)
	plan, err := opt.EvaluateIndexes(del, cat.Definitions())
	if err != nil {
		t.Fatal(err)
	}
	qt := tracer.Begin(del.Raw)
	tx := eng.Begin()
	defer tx.Rollback()
	if _, st, err := tx.ExecuteTraced(del, qt); err != nil || st.DocsModified == 0 {
		t.Fatalf("traced delete: %+v, %v", st, err)
	}
	want := []obs.NodeCard{
		{Op: optimizer.OpTbScan, Site: del.NormalizedKey(), Est: int64(plan.EstCandidateDocs + 0.5), Actual: 200},
		{Op: optimizer.OpFilter, Site: del.NormalizedKey(), Est: int64(plan.EstMatchingDocs + 0.5), Actual: 8},
	}
	if got := qt.Nodes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traced DML scan cards %+v, want %+v", got, want)
	}
}

// TestSnapshotReaderDeclinesUnsafeIndexes pins the decline rule: a
// transaction scans rather than probe an index that is engine-maintained
// or younger than its snapshot, and probes it otherwise — while a plain
// query (the live reader) probes it in every case.
func TestSnapshotReaderDeclinesUnsafeIndexes(t *testing.T) {
	db, _, eng, cat := newFixture(t, 100)
	stmt := xquery.MustParse(eq1)
	probes := func(run func(*xquery.Statement) ([]xindex.Ref, Stats, error)) int64 {
		t.Helper()
		refs, st, err := run(stmt)
		if err != nil || len(refs) != 1 {
			t.Fatalf("refs %v, err %v", refs, err)
		}
		return st.IndexProbes
	}

	old := eng.Begin() // pinned before any index exists
	defer old.Rollback()
	batch := buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	tx := eng.Begin()
	if n := probes(tx.Execute); n != 0 {
		t.Errorf("transaction probed an engine-maintained index (%d probes)", n)
	}
	// The declined plan ran as a scan the optimizer never costed: its
	// trace carries the Filter estimate and no TbScan estimate.
	qt := obs.NewTracer(1).Begin(eq1)
	if _, _, err := tx.ExecuteTraced(stmt, qt); err != nil {
		t.Fatal(err)
	}
	if nodes := qt.Nodes(); len(nodes) != 1 || nodes[0].Op != optimizer.OpFilter {
		t.Errorf("declined index plan logged cards %+v, want one FILTER card", nodes)
	}
	tx.Rollback()
	if n := probes(eng.Execute); n != 1 {
		t.Errorf("plain query made %d probes of the batch-built index, want 1", n)
	}

	cat.Drop(batch.Def)
	// A commit between the old snapshot and the online build: the build
	// cannot answer as of a stamp before it.
	if _, _, err := eng.Execute(xquery.MustParse(`insert into SECURITY value <Security><Symbol>LATER</Symbol></Security>`)); err != nil {
		t.Fatal(err)
	}
	buildOnline(t, db, cat, "/Security/Symbol", xpath.StringVal)
	fresh := eng.Begin()
	defer fresh.Rollback()
	if n := probes(fresh.Execute); n != 1 {
		t.Errorf("transaction made %d probes of an online index older than its snapshot, want 1", n)
	}
	old.view = cat.View() // the old snapshot meets the younger index
	if n := probes(old.Execute); n != 0 {
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

// TestPlanningErrorReturnedOnBothReaders: the transaction's match phase
// used to swallow a planning error and scan; now both paths return it.
func TestPlanningErrorReturnedOnBothReaders(t *testing.T) {
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

package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// liveFixture is newFixture with a live (incrementally maintained)
// optimizer instead of a frozen-statistics one.
func liveFixture(t testing.TB, n int) (*storage.Database, *optimizer.Optimizer, *Engine, *Catalog) {
	t.Helper()
	db, _, _, _ := newFixture(t, n)
	opt := optimizer.NewLive(db)
	cat := NewCatalog()
	return db, opt, New(db, opt, cat), cat
}

// mutationStream executes a deterministic insert/update/delete mix
// through the engine.
func mutationStream(t testing.TB, eng *Engine, round, inserts, updates, deletes int) {
	t.Helper()
	exec := func(raw string) {
		if _, _, err := eng.Execute(xquery.MustParse(raw)); err != nil {
			t.Fatalf("execute %q: %v", raw, err)
		}
	}
	for i := 0; i < inserts; i++ {
		exec(fmt.Sprintf(
			`insert into SECURITY value <Security><Symbol>NEW%02d%03d</Symbol><Yield>%d.%d</Yield><SecInfo><StockInformation><Sector>Streaming</Sector></StockInformation></SecInfo></Security>`,
			round, i, i%14, i%10))
	}
	for i := 0; i < updates; i++ {
		exec(fmt.Sprintf(`update SECURITY set Yield = %d.25 where /Security[Symbol="NEW%02d%03d"]`,
			20+i, round, i))
	}
	for i := 0; i < deletes; i++ {
		exec(fmt.Sprintf(`delete from SECURITY where /Security[Symbol="S%05d"]`, round*100+i))
	}
}

// TestAdviceFreshAfterMutations is the stale-statistics regression
// test: after a stream of engine-executed inserts, updates, and
// deletes, the live optimizer's plans and the advisor's recommendation
// must be bit-identical to those of a cold optimizer built on freshly
// collected statistics. Before version-aware invalidation, the live
// path kept serving advice computed from the load-time synopsis.
func TestAdviceFreshAfterMutations(t *testing.T) {
	db, liveOpt, eng, _ := liveFixture(t, 400)

	queries := []string{
		`for $s in SECURITY('SDOC')/Security where $s/Symbol = "NEW01007" return $s`,
		`for $s in SECURITY('SDOC')/Security where $s/Yield > 5.0 return $s`,
		`for $s in SECURITY('SDOC')/Security[Yield>2.5] where $s/SecInfo/*/Sector = "Streaming" return $s`,
	}
	// Prime the live optimizer so its caches hold pre-mutation state —
	// the regression scenario requires stale cache entries to exist.
	for _, q := range queries {
		if _, err := liveOpt.EvaluateIndexes(xquery.MustParse(q), nil); err != nil {
			t.Fatal(err)
		}
	}

	for round := 1; round <= 3; round++ {
		mutationStream(t, eng, round, 30, 15, 20)

		cold := optimizer.New(db, optimizer.CollectStats(db))
		for _, q := range queries {
			stmt := xquery.MustParse(q)
			livePlan, err := liveOpt.EvaluateIndexes(stmt, nil)
			if err != nil {
				t.Fatal(err)
			}
			coldPlan, err := cold.EvaluateIndexes(xquery.MustParse(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			if livePlan.EstCost != coldPlan.EstCost || livePlan.EstBaseCost != coldPlan.EstBaseCost {
				t.Fatalf("round %d %q: live cost (%v,%v) != fresh-stats cost (%v,%v)",
					round, q, livePlan.EstCost, livePlan.EstBaseCost,
					coldPlan.EstCost, coldPlan.EstBaseCost)
			}
		}

		w, err := workload.ParseStatements(queries)
		if err != nil {
			t.Fatal(err)
		}
		liveAdv, err := core.New(db, liveOpt, w, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		w2, err := workload.ParseStatements(queries)
		if err != nil {
			t.Fatal(err)
		}
		coldAdv, err := core.New(db, cold, w2, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		budget := coldAdv.AllIndexSize()
		liveRec, err := liveAdv.Recommend(core.AlgoTopDownFull, budget)
		if err != nil {
			t.Fatal(err)
		}
		coldRec, err := coldAdv.Recommend(core.AlgoTopDownFull, budget)
		if err != nil {
			t.Fatal(err)
		}
		liveDefs, coldDefs := liveRec.Definitions(), coldRec.Definitions()
		if len(liveDefs) != len(coldDefs) {
			t.Fatalf("round %d: live recommends %d indexes, fresh stats recommend %d",
				round, len(liveDefs), len(coldDefs))
		}
		for i := range liveDefs {
			if liveDefs[i].Key() != coldDefs[i].Key() {
				t.Fatalf("round %d: recommendation[%d] = %s, want %s",
					round, i, liveDefs[i], coldDefs[i])
			}
		}
		if liveRec.Benefit != coldRec.Benefit || liveRec.TotalSize != coldRec.TotalSize {
			t.Fatalf("round %d: live (benefit %v, size %d) != fresh (benefit %v, size %d)",
				round, liveRec.Benefit, liveRec.TotalSize, coldRec.Benefit, coldRec.TotalSize)
		}
	}
}

// TestStaleStaticStatsDiverge documents the bug the live source fixes:
// a frozen-statistics optimizer keeps costing against the load-time
// synopsis after the data changes, so its baseline costs drift from an
// optimizer that sees current statistics.
func TestStaleStaticStatsDiverge(t *testing.T) {
	db, _, _, _ := newFixture(t, 200)
	frozen := optimizer.New(db, optimizer.CollectStats(db))
	live := optimizer.NewLive(db)
	cat := NewCatalog()
	eng := New(db, frozen, cat)

	stmt := xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Yield > 5.0 return $s`)
	before, err := frozen.EvaluateIndexes(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Double the table through the engine.
	for i := 0; i < 200; i++ {
		ins := fmt.Sprintf(
			`insert into SECURITY value <Security><Symbol>G%05d</Symbol><Yield>%d.5</Yield></Security>`,
			i, i%10)
		if _, _, err := eng.Execute(xquery.MustParse(ins)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := frozen.EvaluateIndexes(xquery.MustParse(stmt.Raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.EstBaseCost != before.EstBaseCost {
		t.Fatalf("frozen optimizer moved with the data: %v -> %v", before.EstBaseCost, after.EstBaseCost)
	}
	current, err := live.EvaluateIndexes(xquery.MustParse(stmt.Raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if current.EstBaseCost <= after.EstBaseCost {
		t.Fatalf("live baseline %v should exceed frozen %v after doubling the table",
			current.EstBaseCost, after.EstBaseCost)
	}
}

// TestConcurrentQueriesAndMutations drives concurrent queries and
// inserts/updates/deletes through one engine on one table with live
// statistics — the -race exercise for the storage change feed, the
// statistics keeper, and the optimizer's snapshot handling. Afterwards
// the keeper's statistics must equal a fresh full collection.
//
// UPDATE statements joined the writer mix when the engine's update
// path became copy-on-write (storage.TxReplace): readers evaluate
// immutable pre-images, so value rewrites are safe against concurrent
// statement execution. (The writers still serialize among themselves
// here, as the serving layer's transaction commit protocol does for
// writes to the same document: two engine UPDATEs racing each other
// could interleave their index remove/re-add cycles.)
func TestConcurrentQueriesAndMutations(t *testing.T) {
	db, liveOpt, eng, _ := liveFixture(t, 200)
	tbl, err := db.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 4
		writers   = 2
		opsPerGor = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			queries := []string{
				`for $s in SECURITY('SDOC')/Security where $s/Symbol = "S00042" return $s`,
				`for $s in SECURITY('SDOC')/Security where $s/Yield > 7.5 return $s`,
				`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Sector = "Tech" return $s`,
			}
			for i := 0; i < opsPerGor; i++ {
				stmt := xquery.MustParse(queries[(seed+i)%len(queries)])
				if _, _, err := eng.Execute(stmt); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	// One writer lock shared by the writer goroutines, mirroring the
	// serving layer: mutators serialize among themselves but run
	// concurrently with the readers above.
	var writeMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < opsPerGor; i++ {
				var raw string
				switch i % 3 {
				case 0:
					raw = fmt.Sprintf(
						`insert into SECURITY value <Security><Symbol>W%d-%04d</Symbol><Yield>%d.%d</Yield></Security>`,
						seed, i, i%12, i%10)
				case 1:
					raw = fmt.Sprintf(`update SECURITY set Yield = %d.75 where /Security[Symbol="W%d-%04d"]`,
						i%15, seed, i-1)
				default:
					raw = fmt.Sprintf(`delete from SECURITY where /Security[Symbol="W%d-%04d"]`, seed, i-2)
				}
				writeMu.Lock()
				_, _, err := eng.Execute(xquery.MustParse(raw))
				writeMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: the incremental statistics must now match a fresh
	// collection exactly.
	ts, err := liveOpt.TableStats("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	fresh := optimizer.CollectStats(db)["SECURITY"]
	if ts.Version != fresh.Version || ts.DocCount != fresh.DocCount || ts.TotalNodes != fresh.TotalNodes {
		t.Fatalf("post-storm stats (v%d, %d docs, %d nodes) != fresh (v%d, %d docs, %d nodes)",
			ts.Version, ts.DocCount, ts.TotalNodes, fresh.Version, fresh.DocCount, fresh.TotalNodes)
	}
	if len(ts.List) != len(fresh.List) {
		t.Fatalf("post-storm stats have %d paths, fresh %d", len(ts.List), len(fresh.List))
	}
	for i, g := range ts.List {
		w := fresh.List[i]
		if g.Path() != w.Path() || g.Count != w.Count || g.DistinctStrings != w.DistinctStrings ||
			g.NumericCount != w.NumericCount || g.DistinctNums != w.DistinctNums ||
			g.ValueBytes != w.ValueBytes ||
			!(g.Min == w.Min || (math.IsNaN(g.Min) && math.IsNaN(w.Min))) ||
			!(g.Max == w.Max || (math.IsNaN(g.Max) && math.IsNaN(w.Max))) {
			t.Fatalf("post-storm path %s diverges from fresh collection: %+v vs %+v", g.Path(), g, w)
		}
	}
	if tbl.DocCount() != int(ts.DocCount) {
		t.Fatalf("stats DocCount %d != table DocCount %d", ts.DocCount, tbl.DocCount())
	}
}

// TestUpdatedLeafScansByVersion updates a leaf's numeric text through
// the engine. A compiled scan of the new snapshot must select the
// document by its new value, and one pinned before the update by its
// old value: the update edits a copy, whose commit builds its own
// columns, and the pre-image keeps the columns it was committed with.
func TestUpdatedLeafScansByVersion(t *testing.T) {
	db, _, eng, _ := newFixture(t, 20)
	before := db.PinSnapshot()
	defer before.Release()
	if _, st, err := eng.Execute(xquery.MustParse(`update SECURITY set Yield = 77.5 where /Security[Symbol="S00003"]`)); err != nil || st.DocsModified != 1 {
		t.Fatalf("update: %v, %d documents modified", err, st.DocsModified)
	}
	after := db.PinSnapshot()
	defer after.Release()

	symbol := xpath.MustParse(`/Security/Symbol`)
	selected := func(snap *storage.Snapshot, raw string) []string {
		t.Helper()
		view, err := snap.Table("SECURITY")
		if err != nil {
			t.Fatal(err)
		}
		m := view.Programs().Bind(xpath.MustParse(raw))
		var out []string
		view.Scan(func(d *xmltree.Document) bool {
			if d.Ends() == nil {
				t.Fatalf("committed document %d has no columns", d.DocID)
			}
			if m.Exists(d) {
				out = append(out, d.TrimmedText(xpath.Eval(d, symbol)[0]))
			}
			return true
		})
		return out
	}
	for _, c := range []struct {
		snap *storage.Snapshot
		path string
		want string
	}{
		{after, `/Security[Yield=77.5]`, "[S00003]"},
		{after, `/Security[Yield=0.3]`, "[]"},
		{after, `/Security[Yield>50]/Symbol`, "[S00003]"},
		{before, `/Security[Yield=77.5]`, "[]"},
		{before, `/Security[Yield=0.3]`, "[S00003]"},
		{before, `/Security[Yield>50]/Symbol`, "[]"},
	} {
		if got := fmt.Sprint(selected(c.snap, c.path)); got != c.want {
			t.Errorf("%s at stamp %d selects %s, want %s", c.path, c.snap.LSN(), got, c.want)
		}
	}
	refs, _, err := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security[Yield=77.5] return $s`))
	if err != nil || len(refs) != 1 {
		t.Fatalf("engine query after the update: %v, %d results, want 1", err, len(refs))
	}
}

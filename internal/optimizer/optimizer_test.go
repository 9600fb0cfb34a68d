package optimizer

import (
	"fmt"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// newFixture builds a SECURITY table with n documents shaped like the
// paper's TPoX examples, plus stats and an optimizer.
func newFixture(t testing.TB, n int) (*storage.Database, *Optimizer) {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	for i := 0; i < n; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("S%05d", i)).
			Leaf("Name", fmt.Sprintf("Company %d", i)).
			LeafFloat("Yield", float64(i%100)/10).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", sectors[i%len(sectors)]).
			Leaf("Industry", fmt.Sprintf("Ind%d", i%20)).
			End().End().
			End().Document()
		if _, err := db.Load("SECURITY", d); err != nil {
			t.Fatal(err)
		}
	}
	return db, New(db, CollectStats(db))
}

const (
	oq1 = `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "S00042" return $sec`
	oq2 = `for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`
)

func defOf(pattern string, kind xpath.ValueKind) xindex.Definition {
	return xindex.Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern(pattern), Type: kind}
}

func TestExtractSitesQ1(t *testing.T) {
	sites := ExtractSites(xquery.MustParse(oq1))
	if len(sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(sites))
	}
	if sites[0].Pattern.String() != "/Security/Symbol" {
		t.Errorf("site pattern = %q", sites[0].Pattern.String())
	}
	if sites[0].Op != xpath.OpEq || sites[0].Lit.Kind != xpath.StringVal {
		t.Errorf("site op/lit = %v %v", sites[0].Op, sites[0].Lit)
	}
}

func TestExtractSitesQ2(t *testing.T) {
	sites := ExtractSites(xquery.MustParse(oq2))
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	// Table I of the paper: C3 = /Security/Yield numerical,
	// C2 = /Security/SecInfo/*/Sector string.
	if sites[0].Pattern.String() != "/Security/Yield" || sites[0].Lit.Kind != xpath.NumberVal {
		t.Errorf("site0 = %q %v", sites[0].Pattern.String(), sites[0].Lit.Kind)
	}
	if sites[1].Pattern.String() != "/Security/SecInfo/*/Sector" || sites[1].Lit.Kind != xpath.StringVal {
		t.Errorf("site1 = %q %v", sites[1].Pattern.String(), sites[1].Lit.Kind)
	}
}

func TestEnumerateIndexesTableI(t *testing.T) {
	// The paper's Table I: the optimizer enumerates C1, C2, C3 for the
	// workload {Q1, Q2} via the //* virtual universal index.
	_, opt := newFixture(t, 200)
	var got []string
	for _, q := range []string{oq1, oq2} {
		defs, err := opt.EnumerateIndexes(xquery.MustParse(q))
		if err != nil {
			t.Fatalf("EnumerateIndexes: %v", err)
		}
		for _, d := range defs {
			got = append(got, d.Pattern.String()+" "+d.Type.String())
		}
	}
	want := []string{
		"/Security/Symbol string",           // C1
		"/Security/Yield numerical",         // C3
		"/Security/SecInfo/*/Sector string", // C2
	}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("candidate %d = %q, want %q", i, got[i], want[i])
		}
	}
	if opt.EnumerateCalls() != 2 {
		t.Errorf("EnumerateCalls = %d, want 2", opt.EnumerateCalls())
	}
}

func TestEnumerateAttributeSites(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("ORDERS")
	for i := 0; i < 10; i++ {
		if _, err := db.Load("ORDERS", xmltree.MustParse(fmt.Sprintf(`<Order id="%d"><Qty>%d</Qty></Order>`, i, i))); err != nil {
			t.Fatal(err)
		}
	}
	opt := New(db, CollectStats(db))
	stmt := xquery.MustParse(`ORDERS('ODOC')/Order[@id="5"]`)
	defs, err := opt.EnumerateIndexes(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 || defs[0].Pattern.String() != "/Order/@id" {
		t.Errorf("attribute candidate = %v", defs)
	}
}

func TestEvaluateBaselineIsFullScan(t *testing.T) {
	_, opt := newFixture(t, 500)
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesIndexes() {
		t.Error("baseline plan uses indexes")
	}
	if plan.EstCost <= 0 || plan.EstCost != plan.EstBaseCost {
		t.Errorf("baseline cost = %v (base %v)", plan.EstCost, plan.EstBaseCost)
	}
	if opt.EvaluateCalls() != 1 {
		t.Errorf("EvaluateCalls = %d", opt.EvaluateCalls())
	}
}

func TestEvaluateUsesMatchingIndex(t *testing.T) {
	_, opt := newFixture(t, 500)
	cfg := []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatal("plan ignores a perfectly matching index")
	}
	if plan.EstCost >= plan.EstBaseCost {
		t.Errorf("index plan cost %v not below base %v", plan.EstCost, plan.EstBaseCost)
	}
	// Speedup for a point query on a unique key should be large.
	if plan.EstBaseCost/plan.EstCost < 10 {
		t.Errorf("speedup = %.1f, want >= 10", plan.EstBaseCost/plan.EstCost)
	}
}

func TestEvaluateIgnoresUselessIndex(t *testing.T) {
	_, opt := newFixture(t, 500)
	cfg := []xindex.Definition{defOf("/Security/Name", xpath.StringVal)}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesIndexes() {
		t.Error("plan uses an index that matches no predicate site")
	}
}

func TestEvaluateTypeMismatch(t *testing.T) {
	_, opt := newFixture(t, 500)
	// Numeric index on Symbol cannot answer the string comparison.
	cfg := []xindex.Definition{defOf("/Security/Symbol", xpath.NumberVal)}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesIndexes() {
		t.Error("type-mismatched index used")
	}
}

func TestEvaluateGeneralIndexMatchesButCostsMore(t *testing.T) {
	_, opt := newFixture(t, 500)
	stmt := xquery.MustParse(oq1)
	specific, err := opt.EvaluateIndexes(stmt, []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)})
	if err != nil {
		t.Fatal(err)
	}
	general, err := opt.EvaluateIndexes(stmt, []xindex.Definition{defOf("/Security//*", xpath.StringVal)})
	if err != nil {
		t.Fatal(err)
	}
	if !general.UsesIndexes() {
		t.Fatal("general index /Security//* not matched")
	}
	if general.EstCost < specific.EstCost {
		t.Errorf("general index cheaper (%v) than specific (%v)", general.EstCost, specific.EstCost)
	}
	if general.EstCost >= general.EstBaseCost {
		t.Errorf("general index gives no benefit at all: %v vs %v", general.EstCost, general.EstBaseCost)
	}
}

func TestEvaluatePrefersSpecificOverGeneral(t *testing.T) {
	_, opt := newFixture(t, 500)
	cfg := []xindex.Definition{
		defOf("/Security//*", xpath.StringVal),
		defOf("/Security/Symbol", xpath.StringVal),
	}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Accesses) != 1 {
		t.Fatalf("accesses = %d, want 1 (one site)", len(plan.Accesses))
	}
	if plan.Accesses[0].Index.Pattern.String() != "/Security/Symbol" {
		t.Errorf("chose %q, want the specific index", plan.Accesses[0].Index.Pattern.String())
	}
}

func TestEvaluateIndexANDing(t *testing.T) {
	_, opt := newFixture(t, 2000)
	stmt := xquery.MustParse(oq2)
	one := []xindex.Definition{defOf("/Security/SecInfo/*/Sector", xpath.StringVal)}
	both := append([]xindex.Definition{defOf("/Security/Yield", xpath.NumberVal)}, one...)
	p1, err := opt.EvaluateIndexes(stmt, one)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := opt.EvaluateIndexes(stmt, both)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.UsesIndexes() || !p2.UsesIndexes() {
		t.Fatal("expected index plans")
	}
	if len(p2.Accesses) < 2 {
		t.Errorf("ANDing not applied: %d accesses", len(p2.Accesses))
	}
	if p2.EstCost > p1.EstCost {
		t.Errorf("two-index plan (%v) costs more than one-index (%v)", p2.EstCost, p1.EstCost)
	}
}

func TestEvaluateInsertIndependentOfConfig(t *testing.T) {
	_, opt := newFixture(t, 100)
	ins := xquery.MustParse(`insert into SECURITY value <Security><Symbol>NEW</Symbol><Yield>1</Yield></Security>`)
	p0, err := opt.EvaluateIndexes(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := opt.EvaluateIndexes(ins, []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)})
	if err != nil {
		t.Fatal(err)
	}
	if p0.EstCost != p1.EstCost {
		t.Errorf("insert cost depends on config: %v vs %v", p0.EstCost, p1.EstCost)
	}
	if p1.UsesIndexes() {
		t.Error("insert plan uses indexes")
	}
}

func TestEvaluateDeleteBenefitsFromIndex(t *testing.T) {
	_, opt := newFixture(t, 1000)
	del := xquery.MustParse(`delete from SECURITY where /Security[Symbol="S00042"]`)
	p0, err := opt.EvaluateIndexes(del, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := opt.EvaluateIndexes(del, []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)})
	if err != nil {
		t.Fatal(err)
	}
	if p1.EstCost >= p0.EstCost {
		t.Errorf("delete does not benefit from index: %v vs %v", p1.EstCost, p0.EstCost)
	}
}

func TestMaintenanceCostInsert(t *testing.T) {
	_, opt := newFixture(t, 100)
	ins := xquery.MustParse(`insert into SECURITY value <Security><Symbol>NEW</Symbol><Yield>1</Yield></Security>`)
	mcSym := opt.MaintenanceCost(defOf("/Security/Symbol", xpath.StringVal), ins)
	if mcSym <= 0 {
		t.Errorf("mc for covering index = %v, want > 0", mcSym)
	}
	mcSector := opt.MaintenanceCost(defOf("/Security/SecInfo/*/Sector", xpath.StringVal), ins)
	if mcSector != 0 {
		t.Errorf("mc for non-matching index = %v, want 0 (doc has no Sector)", mcSector)
	}
	// A general index absorbs more entries, so it must cost at least as
	// much to maintain.
	mcGeneral := opt.MaintenanceCost(defOf("/Security//*", xpath.StringVal), ins)
	if mcGeneral < mcSym {
		t.Errorf("general mc %v < specific mc %v", mcGeneral, mcSym)
	}
	// Queries have zero maintenance cost.
	if mc := opt.MaintenanceCost(defOf("/Security/Symbol", xpath.StringVal), xquery.MustParse(oq1)); mc != 0 {
		t.Errorf("mc for query = %v", mc)
	}
}

func TestMaintenanceCostUpdate(t *testing.T) {
	_, opt := newFixture(t, 100)
	upd := xquery.MustParse(`update SECURITY set Yield = 9.9 where /Security[Symbol="S00001"]`)
	mcYield := opt.MaintenanceCost(defOf("/Security/Yield", xpath.NumberVal), upd)
	if mcYield <= 0 {
		t.Errorf("mc for index on updated path = %v, want > 0", mcYield)
	}
	mcSym := opt.MaintenanceCost(defOf("/Security/Symbol", xpath.StringVal), upd)
	if mcSym != 0 {
		t.Errorf("mc for index not covering updated path = %v, want 0", mcSym)
	}
}

func TestMissingStatsError(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	opt := New(db, nil)
	if _, err := opt.EvaluateIndexes(xquery.MustParse(oq1), nil); err == nil {
		t.Error("EvaluateIndexes without statistics succeeded")
	}
	if _, err := opt.EnumerateIndexes(xquery.MustParse(oq1)); err == nil {
		t.Error("EnumerateIndexes without statistics succeeded")
	}
}

func TestResetCallCounters(t *testing.T) {
	_, opt := newFixture(t, 50)
	_, _ = opt.EvaluateIndexes(xquery.MustParse(oq1), nil)
	_, _ = opt.EnumerateIndexes(xquery.MustParse(oq1))
	opt.ResetCallCounters()
	if opt.EvaluateCalls() != 0 || opt.EnumerateCalls() != 0 {
		t.Error("counters not reset")
	}
}

func TestPlanString(t *testing.T) {
	_, opt := newFixture(t, 100)
	p0, _ := opt.EvaluateIndexes(xquery.MustParse(oq1), nil)
	if s := p0.String(); s == "" || s[:6] != "TBSCAN" {
		t.Errorf("baseline String = %q", s)
	}
	p1, _ := opt.EvaluateIndexes(xquery.MustParse(oq1),
		[]xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)})
	if s := p1.String(); s == "" || s[:5] != "IXAND" {
		t.Errorf("index plan String = %q", s)
	}
}

// Every advisor builds its own Definitions and the serving planner
// parses fresh ones, so the per-site probe memo must be keyed by the
// definition's value: equal definitions from fresh parses hit the
// entries the first call made instead of adding (and pinning) new ones.
func TestSiteEvalMemoIsKeyedByValue(t *testing.T) {
	_, opt := newFixture(t, 50)
	stmt := xquery.MustParse(oq2)
	var first int
	var cost float64
	for i := 0; i < 20; i++ {
		cfg := []xindex.Definition{
			defOf("/Security/Yield", xpath.NumberVal),
			defOf("/Security/SecInfo/*/Sector", xpath.StringVal),
			defOf("/Security//*", xpath.StringVal),
		}
		p, err := opt.EvaluateIndexes(stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, cost = opt.SiteEvalEntries(), p.EstCost
			if first == 0 {
				t.Fatal("the first evaluation memoized nothing")
			}
		} else if p.EstCost != cost {
			t.Fatalf("call %d: cost %v, first call %v", i+1, p.EstCost, cost)
		}
	}
	if got := opt.SiteEvalEntries(); got != first {
		t.Errorf("probe memo holds %d entries after 20 calls with equal definitions, %d after the first", got, first)
	}
}

// TestLiveOptimizerCostsCurrentStatistics asserts a live optimizer
// costs against the table as it is now: after a load grows the table,
// Evaluate Indexes must cost above the pre-load base and equal an
// optimizer over freshly collected statistics exactly.
func TestLiveOptimizerCostsCurrentStatistics(t *testing.T) {
	db, _ := newFixture(t, 300)
	opt := NewLive(db)

	stmt := xquery.MustParse(oq2)
	cfg := []xindex.Definition{defOf("/Security/Yield", xpath.NumberVal)}
	before, err := opt.EvaluateIndexes(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the table: grow it by a third.
	for i := 0; i < 100; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("V%05d", i)).
			LeafFloat("Yield", 5.0+float64(i%40)/10).
			End().Document()
		if _, err := db.Load("SECURITY", d); err != nil {
			t.Fatal(err)
		}
	}

	after, err := opt.EvaluateIndexes(xquery.MustParse(oq2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.EstBaseCost <= before.EstBaseCost {
		t.Fatalf("post-mutation base cost %v not above pre-mutation %v", after.EstBaseCost, before.EstBaseCost)
	}
	want := New(db, CollectStats(db))
	fresh, err := want.EvaluateIndexes(xquery.MustParse(oq2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.EstCost != fresh.EstCost || after.EstBaseCost != fresh.EstBaseCost {
		t.Fatalf("live path (%v,%v) != fresh stats (%v,%v)",
			after.EstCost, after.EstBaseCost, fresh.EstCost, fresh.EstBaseCost)
	}
}

// TestRecompileDoesNotFlushCompiledCache pins the overflow flush to the
// number of statements held, not the number of compilations: a tuner
// over a mutating table recompiles its few hundred statements after
// every statistics fold, and used to empty the whole cache every 4,096
// recompilations.
func TestRecompileDoesNotFlushCompiledCache(t *testing.T) {
	db, _ := newFixture(t, 50)
	opt := NewLive(db)
	stmts := make([]*xquery.Statement, 215)
	for i := range stmts {
		stmts[i] = xquery.MustParse(fmt.Sprintf(
			`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "S%05d" return $sec`, i))
	}
	for round := 0; round < 100; round++ {
		// One mutation a round: every statement's compilation is stale.
		if _, err := db.Load("SECURITY", xmltree.NewBuilder().Begin("Security").
			Leaf("Symbol", fmt.Sprintf("R%05d", round)).End().Document()); err != nil {
			t.Fatal(err)
		}
		ts, err := opt.TableStats("SECURITY")
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range stmts {
			if cs := opt.compile(stmt, ts); cs.ts != ts {
				t.Fatal("compile returned a compilation against other statistics")
			}
		}
		held := 0
		opt.compiled.Range(func(_, _ any) bool { held++; return true })
		if held != len(stmts) || opt.compiledLen.Load() != int64(len(stmts)) {
			t.Fatalf("round %d: cache holds %d statements and counts %d, want %d of both",
				round, held, opt.compiledLen.Load(), len(stmts))
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

// newFixture builds the paper's running-example environment: a SECURITY
// table and the Q1/Q2 workload (plus optional extra statements).
func newFixture(t testing.TB, docs int, stmts ...string) *Advisor {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	for i := 0; i < docs; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("S%05d", i)).
			Leaf("Name", fmt.Sprintf("Company %d", i)).
			LeafFloat("Yield", float64(i%100)/10).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", sectors[i%len(sectors)]).
			Leaf("Industry", fmt.Sprintf("Ind%d", i%20)).
			End().End().
			Begin("Price").LeafFloat("Open", float64(i%50)).LeafFloat("Close", float64(i%50)+1).End().
			End().Document()
		if _, err := db.Load("SECURITY", d); err != nil {
			t.Fatal(err)
		}
	}
	opt := optimizer.New(db, optimizer.CollectStats(db))
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(db, opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const (
	aq1 = `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "S00042" return $sec`
	aq2 = `for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`
)

func candidateStrings(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Def.Pattern.String()
	}
	return out
}

func TestPipelineTableI(t *testing.T) {
	// End-to-end reproduction of the paper's Table I: basic candidates
	// C1-C3 and generalized candidate C4 = /Security//*.
	a := newFixture(t, 300, aq1, aq2)
	basic := candidateStrings(a.Candidates.Basic())
	wantBasic := map[string]bool{
		"/Security/Symbol":           true, // C1
		"/Security/Yield":            true, // C3
		"/Security/SecInfo/*/Sector": true, // C2
	}
	if len(basic) != 3 {
		t.Fatalf("basic candidates = %v", basic)
	}
	for _, b := range basic {
		if !wantBasic[b] {
			t.Errorf("unexpected basic candidate %q", b)
		}
	}
	// C4 appears among the generalized candidates (C3 is numeric, so it
	// cannot generalize with C1 or C2 — exactly the paper's remark).
	foundC4 := false
	for _, g := range a.Candidates.Generalized() {
		if g.Def.Pattern.String() == "/Security//*" {
			foundC4 = true
			if g.Def.Type.String() != "string" {
				t.Errorf("C4 type = %s, want string", g.Def.Type)
			}
		}
	}
	if !foundC4 {
		t.Errorf("generalized candidates %v missing /Security//*",
			candidateStrings(a.Candidates.Generalized()))
	}
}

func TestAffectedSets(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	c1, ok := a.Candidates.Lookup(a.Candidates.Basic()[0].Def)
	if !ok {
		t.Fatal("lookup failed")
	}
	// C1 (/Security/Symbol) is produced only by statement 0 (Q1).
	if got := c1.Affected.Elements(); len(got) != 1 || got[0] != 0 {
		t.Errorf("C1 affected = %v, want [0]", got)
	}
	// The general candidate /Security//* covers C1 and C2, so it
	// affects both statements.
	for _, g := range a.Candidates.Generalized() {
		if g.Def.Pattern.String() == "/Security//*" {
			if got := g.Affected.Elements(); len(got) != 2 {
				t.Errorf("C4 affected = %v, want both statements", got)
			}
		}
	}
}

func TestDAGStructure(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	for _, g := range a.Candidates.Generalized() {
		if g.Def.Pattern.String() != "/Security//*" {
			continue
		}
		if len(g.Children) < 2 {
			t.Errorf("C4 children = %v, want C1 and C2", candidateStrings(g.Children))
		}
		for _, ch := range g.Children {
			if !g.Covers(ch) {
				t.Errorf("DAG child %s not covered by parent", ch.Def.Pattern)
			}
			found := false
			for _, p := range ch.Parents {
				if p == g {
					found = true
				}
			}
			if !found {
				t.Error("parent link missing")
			}
		}
	}
	// Roots have no parents.
	for _, r := range a.Candidates.Roots() {
		if len(r.Parents) != 0 {
			t.Errorf("root %s has parents", r.Def.Pattern)
		}
	}
}

func TestRecommendAllAlgorithmsRespectBudget(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2)
	all := a.AllIndexSize()
	for _, algo := range Algorithms() {
		for _, budget := range []int64{all / 4, all / 2, all, all * 4} {
			rec, err := a.Recommend(algo, budget)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if rec.TotalSize > budget {
				t.Errorf("%s at %d: size %d exceeds budget", algo, budget, rec.TotalSize)
			}
			if rec.Benefit < 0 {
				t.Errorf("%s at %d: negative benefit %v", algo, budget, rec.Benefit)
			}
		}
	}
	if _, err := a.Recommend("nonsense", all); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRecommendLargeBudgetReachesAllIndexSpeedup(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2)
	allSpeedup := a.EstimatedSpeedup(a.AllIndexConfig())
	if allSpeedup <= 1 {
		t.Fatalf("All-Index speedup = %v, want > 1", allSpeedup)
	}
	for _, algo := range []string{AlgoHeuristic, AlgoTopDownLite, AlgoTopDownFull, AlgoDP} {
		rec, err := a.Recommend(algo, a.AllIndexSize()*8)
		if err != nil {
			t.Fatal(err)
		}
		sp := a.EstimatedSpeedup(rec.Config)
		if sp < allSpeedup*0.95 {
			t.Errorf("%s at large budget: speedup %.2f well below All-Index %.2f", algo, sp, allSpeedup)
		}
	}
}

func TestSpeedupMonotoneInBudget(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2)
	all := a.AllIndexSize()
	prev := 0.0
	for _, frac := range []int64{8, 4, 2, 1} {
		rec, err := a.Recommend(AlgoHeuristic, all/frac)
		if err != nil {
			t.Fatal(err)
		}
		sp := a.EstimatedSpeedup(rec.Config)
		if sp+1e-9 < prev {
			t.Errorf("speedup decreased with budget: %.3f after %.3f", sp, prev)
		}
		prev = sp
	}
}

func TestHeuristicAtLeastGreedy(t *testing.T) {
	// The heuristics exist to avoid greedy's wasted space; at tight
	// budgets the heuristic configuration must be at least as good.
	a := newFixture(t, 300, aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
		`SECURITY('SDOC')/Security[Yield<2.5]`,
	)
	budget := a.AllIndexSize() / 2
	greedy, err := a.Recommend(AlgoGreedy, budget)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := a.Recommend(AlgoHeuristic, budget)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Benefit+1e-9 < greedy.Benefit {
		t.Errorf("heuristic benefit %.1f below greedy %.1f", heur.Benefit, greedy.Benefit)
	}
}

func TestHeuristicAvoidsRedundantGenerals(t *testing.T) {
	// Greedy-with-heuristics is "very conservative about recommending
	// general indexes" (paper Table IV): with ample budget it should
	// recommend (nearly) none here, since the specifics already cover
	// all sites and the general is much larger.
	a := newFixture(t, 300, aq1, aq2)
	rec, err := a.Recommend(AlgoHeuristic, a.AllIndexSize()*8)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GeneralCount() > 0 {
		t.Errorf("heuristic recommended %d general indexes: %v",
			rec.GeneralCount(), candidateStrings(rec.Config))
	}
	if rec.SpecificCount() == 0 {
		t.Error("heuristic recommended nothing")
	}
}

func TestTopDownPrefersGeneralsAtLargeBudget(t *testing.T) {
	// Table IV: top-down recommends more general indexes as the budget
	// grows, reaching an all-general configuration at large budgets.
	a := newFixture(t, 300, aq1, aq2)
	big, err := a.Recommend(AlgoTopDownLite, a.AllIndexSize()*100)
	if err != nil {
		t.Fatal(err)
	}
	if big.GeneralCount() == 0 {
		t.Errorf("top-down at huge budget recommended no general indexes: %v",
			candidateStrings(big.Config))
	}
	small, err := a.Recommend(AlgoTopDownLite, a.AllIndexSize())
	if err != nil {
		t.Fatal(err)
	}
	if small.GeneralCount() > big.GeneralCount() {
		t.Errorf("generals did not grow with budget: %d at small vs %d at big",
			small.GeneralCount(), big.GeneralCount())
	}
}

func TestDPBeatsOrMatchesGreedy(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind3" return $s`,
	)
	budget := a.AllIndexSize() / 2
	greedy, err := a.Recommend(AlgoGreedy, budget)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := a.Recommend(AlgoDP, budget)
	if err != nil {
		t.Fatal(err)
	}
	// DP is optimal on standalone benefits; compare on that objective.
	sum := func(cfg []*Candidate) float64 {
		s := 0.0
		for _, c := range cfg {
			s += a.eval.StandaloneBenefit(c)
		}
		return s
	}
	if sum(dp.Config)+1e-9 < sum(greedy.Config) {
		t.Errorf("DP standalone total %.1f below greedy %.1f", sum(dp.Config), sum(greedy.Config))
	}
}

func TestMaintenanceCostSteersRecommendation(t *testing.T) {
	// With a heavy insert stream, indexes whose maintenance exceeds
	// their benefit must be dropped (§III, §VI-B preprocessing).
	queryOnly := newFixture(t, 300, aq1)
	recQ, err := queryOnly.Recommend(AlgoHeuristic, queryOnly.AllIndexSize()*4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recQ.Config) == 0 {
		t.Fatal("query-only workload got no indexes")
	}
	queryBenefit := recQ.Benefit

	// Same data and query, plus a very hot insert statement: the total
	// benefit must shrink (maintenance subtracted), and with enough
	// insert pressure the recommendation gives up on indexing entirely.
	a := queryOnly
	w := workload.New(xquery.MustParse(aq1))
	w.Add(xquery.MustParse(
		`insert into SECURITY value <Security><Symbol>HOT</Symbol><Yield>1</Yield></Security>`),
		100000)
	noisy, err := New(a.DB, a.Opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recN, err := noisy.Recommend(AlgoHeuristic, noisy.AllIndexSize()*4)
	if err != nil {
		t.Fatal(err)
	}
	if recN.Benefit >= queryBenefit {
		t.Errorf("insert-heavy benefit %.1f not below query-only %.1f", recN.Benefit, queryBenefit)
	}
	if len(recN.Config) != 0 {
		t.Errorf("with 100000 inserts per query the advisor still recommends %v",
			candidateStrings(recN.Config))
	}
}

func TestSQLXMLWorkloadSameCandidates(t *testing.T) {
	// The paper's tight-coupling claim (§I): SQL/XML and XQuery
	// statements yield the same candidates because both flow through
	// the optimizer's index matching. An equivalent workload written in
	// SQL/XML must produce the identical candidate set.
	flwor := newFixture(t, 200, aq1, aq2)
	sqlxml := newFixture(t, 200,
		`SELECT * FROM SECURITY WHERE XMLEXISTS('$SDOC/Security[Symbol="S00042"]' PASSING SDOC)`,
		`SELECT * FROM SECURITY WHERE XMLEXISTS('$SDOC/Security[Yield>4.5][SecInfo/*/Sector="Energy"]' PASSING SDOC)`,
	)
	a := candidateStrings(flwor.Candidates.All)
	b := candidateStrings(sqlxml.Candidates.All)
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: FLWOR %v vs SQL/XML %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("candidate %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	opt := optimizer.New(db, optimizer.CollectStats(db))
	if _, err := New(db, opt, workload.New(), DefaultOptions()); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestRecommendationCounts(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	rec, err := a.Recommend(AlgoTopDownLite, a.AllIndexSize()*100)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GeneralCount()+rec.SpecificCount() != len(rec.Config) {
		t.Error("G+S != total")
	}
	if len(rec.Definitions()) != len(rec.Config) {
		t.Error("Definitions length mismatch")
	}
	if rec.OptimizerCalls < 0 {
		t.Error("negative optimizer calls")
	}
}

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

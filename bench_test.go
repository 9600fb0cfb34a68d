// Package xixa's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (run the cmd/experiments
// binary for the full paper-style sweeps with printed rows), plus
// microbenchmarks of the load-bearing substrate operations.
//
//	go test -bench=. -benchmem
package xixa

import (
	"errors"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmt"
	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/experiments"

	"xixa/internal/optimizer"
	"xixa/internal/replica"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = experiments.NewEnv(1)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

func benchAdvisor(b *testing.B, e *experiments.Env) *core.Advisor {
	b.Helper()
	w, err := workload.ParseStatements(tpox.Queries())
	if err != nil {
		b.Fatal(err)
	}
	adv, err := core.New(e.DB, e.Opt, w, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return adv
}

// BenchmarkTableI measures the Table I pipeline: enumerate + generalize
// the candidates of the paper's Q1/Q2.
func BenchmarkTableI(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkRecommend runs one search algorithm at half the All-Index
// budget on the 11-query workload — one Figure 2 data point.
func benchmarkRecommend(b *testing.B, algo string) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		adv := benchAdvisor(b, e) // fresh advisor: no benefit-cache carryover
		budget := adv.AllIndexSize() / 2
		b.StartTimer()
		if _, err := adv.Recommend(algo, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// The Figure 2 / Figure 3 family: per-algorithm advisor runs.
func BenchmarkFig2Greedy(b *testing.B)      { benchmarkRecommend(b, core.AlgoGreedy) }
func BenchmarkFig2Heuristic(b *testing.B)   { benchmarkRecommend(b, core.AlgoHeuristic) }
func BenchmarkFig2TopDownLite(b *testing.B) { benchmarkRecommend(b, core.AlgoTopDownLite) }
func BenchmarkFig2TopDownFull(b *testing.B) { benchmarkRecommend(b, core.AlgoTopDownFull) }
func BenchmarkFig2DP(b *testing.B)          { benchmarkRecommend(b, core.AlgoDP) }

// BenchmarkTable3 measures candidate enumeration + generalization on a
// 30-query random workload (the Table III midpoint).
func BenchmarkTable3(b *testing.B) {
	e := benchEnv(b)
	stmts := tpox.SyntheticQueries(e.DB, 30, 130)
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(e.DB, e.Opt, w, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 measures one Table IV row: the three algorithms at
// the 500 MB-equivalent budget on the 20-query workload.
func BenchmarkTable4(b *testing.B) {
	e := benchEnv(b)
	stmts := append(append([]string(nil), tpox.Queries()...), tpox.SyntheticQueries(e.DB, 9, 7)...)
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		adv, err := core.New(e.DB, e.Opt, w, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		budget := int64(float64(adv.AllIndexSize()) * 500 / 95)
		b.StartTimer()
		for _, algo := range []string{core.AlgoTopDownLite, core.AlgoTopDownFull, core.AlgoHeuristic} {
			if _, err := adv.Recommend(algo, budget); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4 measures one Figure 4 point: train on 10 queries,
// score the recommendation on the full 20-query workload.
func BenchmarkFig4(b *testing.B) {
	e := benchEnv(b)
	stmts := append(append([]string(nil), tpox.Queries()...), tpox.SyntheticQueries(e.DB, 9, 7)...)
	full, err := workload.ParseStatements(stmts)
	if err != nil {
		b.Fatal(err)
	}
	test, err := core.New(e.DB, e.Opt, full, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train, err := core.New(e.DB, e.Opt, full.Prefix(10), core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rec, err := train.Recommend(core.AlgoTopDownLite, train.AllIndexSize()*20)
		if err != nil {
			b.Fatal(err)
		}
		if sp := test.SpeedupUnder(rec.Definitions()); sp <= 0 {
			b.Fatal("non-positive speedup")
		}
	}
}

// BenchmarkFig5 measures one Figure 5 point: materialize the
// recommended indexes and actually execute the workload.
func BenchmarkFig5(b *testing.B) {
	e := benchEnv(b)
	adv := benchAdvisor(b, e)
	rec, err := adv.Recommend(core.AlgoTopDownFull, adv.AllIndexSize())
	if err != nil {
		b.Fatal(err)
	}
	cat := engine.NewCatalog()
	for _, def := range rec.Definitions() {
		tbl, err := e.DB.Table(def.Table)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := xindex.BuildOnline(tbl, def)
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Release() // benchEnv's database is shared
		cat.Add(idx)
	}
	eng := engine.New(e.DB, e.Opt, cat)
	var items []engine.WorkloadItem
	for _, it := range adv.W.Items {
		items = append(items, engine.WorkloadItem{Stmt: it.Stmt, Freq: it.Freq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunWorkload(items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCalls measures the §VI-C efficient benefit
// evaluation: whole-configuration benefit with caching enabled.
func BenchmarkAblationCalls(b *testing.B) {
	e := benchEnv(b)
	adv := benchAdvisor(b, e)
	all := adv.AllIndexConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Evaluator().ConfigBenefit(all)
	}
}

// --- parallel advisor pipeline ---

// parallelBenchWorkload is the 30-query random workload used by the
// parallelism benchmarks: large enough that the fan-out dominates the
// per-item scheduling overhead.
func parallelBenchWorkload(b *testing.B, e *experiments.Env) *workload.Workload {
	b.Helper()
	w, err := workload.ParseStatements(tpox.SyntheticQueries(e.DB, 30, 130))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchmarkParallelEvaluate measures whole-configuration benefit
// evaluation — the advisor's hottest loop — at a fixed fan-out width.
// The sub-configuration cache is disabled so every iteration performs
// the full set of Evaluate Indexes calls instead of returning memoized
// benefits.
func benchmarkParallelEvaluate(b *testing.B, parallelism int) {
	e := benchEnv(b)
	w := parallelBenchWorkload(b, e)
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	opts.DisableSubConfigCache = true
	adv, err := core.New(e.DB, e.Opt, w, opts)
	if err != nil {
		b.Fatal(err)
	}
	all := adv.AllIndexConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Evaluator().ConfigBenefit(all)
	}
}

// BenchmarkParallelEvaluate contrasts the serial evaluation path
// (Parallelism: 1, the paper's pipeline) with the parallel one
// (Parallelism: GOMAXPROCS). Both produce bit-identical benefits; the
// parallel path should win by ~min(cores, affected statements).
func BenchmarkParallelEvaluate(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkParallelEvaluate(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchmarkParallelEvaluate(b, 0) })
}

// benchmarkParallelEnumerate measures advisor construction — candidate
// enumeration, generalization, and baseline costing — at a fixed
// fan-out width. Enumeration and baseline costing fan out;
// generalization is inherently serial, so the end-to-end speedup is
// sublinear.
func benchmarkParallelEnumerate(b *testing.B, parallelism int) {
	e := benchEnv(b)
	w := parallelBenchWorkload(b, e)
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(e.DB, e.Opt, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelEnumerate contrasts serial and parallel advisor
// construction over the 30-query workload.
func BenchmarkParallelEnumerate(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkParallelEnumerate(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchmarkParallelEnumerate(b, 0) })
}

// --- substrate microbenchmarks ---

func BenchmarkXPathEval(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	doc, ok := tbl.Get(0)
	if !ok {
		b.Fatal("doc 0 missing")
	}
	p := xpath.MustParse(`/Security[Yield>4.5]/SecInfo/*/Sector`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xpath.Eval(doc, p)
	}
}

// scanTemplates are the four un-indexed statement templates of the
// scan-untuned benchmark workload (TPoX Q2-Q4 and Q6).
var scanTemplates = []struct{ name, raw string }{
	{"Q2-sector-yield", `for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`},
	{"Q3-industry", `for $sec in SECURITY('SDOC')/Security where $sec//Industry = "Software" return <R>{$sec/Symbol}{$sec/Name}</R>`},
	{"Q4-pe-yield", `for $sec in SECURITY('SDOC')/Security[PE<12.0] where $sec/Yield >= 6.0 return <R>{$sec/Symbol}{$sec/PE}{$sec/Yield}</R>`},
	{"Q6-rating", `for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/BondInformation/CreditRating = "AAA" return <R>{$sec/Symbol}</R>`},
}

// BenchmarkScanCompiled times the document-match step of an un-indexed
// scan over the SECURITY table: the compiled program's Exists against
// the reference evaluator, per template, in ns/doc. The program must
// not allocate on a document it rejects (checked on the documents the
// Q6 template rejects by path summary and on those it has to visit).
func BenchmarkScanCompiled(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	var docs []*xmltree.Document
	tbl.Scan(func(d *xmltree.Document) bool { docs = append(docs, d); return true })
	for _, tpl := range scanTemplates {
		path := xquery.MustParse(tpl.raw).NormalizedPath()
		m := tbl.Programs().Bind(path)
		var rejected []*xmltree.Document
		for _, d := range docs {
			if !m.Exists(d) {
				rejected = append(rejected, d)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, d := range rejected {
				m.Exists(d)
			}
		}); allocs != 0 {
			b.Fatalf("%s: %v allocations over %d rejected documents, want 0", tpl.name, allocs, len(rejected))
		}
		perDoc := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
		}
		b.Run(tpl.name+"/compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					m.Exists(d)
				}
			}
			perDoc(b)
		})
		b.Run(tpl.name+"/eval", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					_ = len(xpath.Eval(d, path)) > 0
				}
			}
			perDoc(b)
		})
	}
}

func BenchmarkContainment(b *testing.B) {
	super := xpath.MustParse("/Security//*")
	sub := xpath.MustParse("/Security/SecInfo/*/Sector")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !xpath.Contains(super, sub) {
			b.Fatal("containment broken")
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	def := xindex.Definition{
		Table:   tpox.TableSecurity,
		Pattern: xpath.MustParsePattern("/Security/Symbol"),
		Type:    xpath.StringVal,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xindex.Build(tbl, def); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexProbe(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := xindex.Build(tbl, xindex.Definition{
		Table:   tpox.TableSecurity,
		Pattern: xpath.MustParsePattern("/Security/Symbol"),
		Type:    xpath.StringVal,
	})
	if err != nil {
		b.Fatal(err)
	}
	lit := xpath.StringValue(tpox.SymbolOf(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := idx.Scan(xpath.OpEq, lit, func(xindex.Ref) bool { return true })
		if n != 1 {
			b.Fatalf("probe hits = %d", n)
		}
	}
}

func BenchmarkOptimizerEnumerate(b *testing.B) {
	e := benchEnv(b)
	stmt := xquery.MustParse(tpox.Queries()[tpox.PaperQ2])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Opt.EnumerateIndexes(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerEvaluate(b *testing.B) {
	e := benchEnv(b)
	stmt := xquery.MustParse(tpox.Queries()[tpox.PaperQ2])
	cfg := []xindex.Definition{
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/SecInfo/*/Sector"), Type: xpath.StringVal},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Opt.EvaluateIndexes(stmt, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatsCollect(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimizer.CollectStats(e.DB)
	}
}

// BenchmarkCollectStats measures the single-pass RUNSTATS analog on one
// TPoX-scale table (the per-table unit the advisor pipeline pays).
func BenchmarkCollectStats(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xstats.Collect(tbl)
	}
}

// BenchmarkForPatternCold measures virtual-index statistics derivation
// with cold caches: each iteration collects fresh table statistics
// (outside the timer) and then derives PatternStats for a pattern mix,
// so every ForPattern call pays the dictionary match instead of a memo
// hit.
func BenchmarkForPatternCold(b *testing.B) {
	e := benchEnv(b)
	tbl, err := e.DB.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	patterns := []xpath.Path{
		xpath.MustParsePattern("/Security/Symbol"),
		xpath.MustParsePattern("/Security/Yield"),
		xpath.MustParsePattern("/Security/SecInfo/*/Sector"),
		xpath.MustParsePattern("/Security//Sector"),
		xpath.MustParsePattern("//*"),
		xpath.MustParsePattern("//@*"),
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := xstats.Collect(tbl)
		b.StartTimer()
		for _, p := range patterns {
			ts.ForPattern(p, xpath.StringVal)
			ts.ForPattern(p, xpath.NumberVal)
		}
	}
}

// BenchmarkEvaluateCompiled measures one Evaluate Indexes what-if call
// against a warm compiled statement — the unit cost the §VI search pays
// thousands of times. The configuration mixes matching and
// non-matching indexes like a real search configuration does.
func BenchmarkEvaluateCompiled(b *testing.B) {
	e := benchEnv(b)
	stmt := xquery.MustParse(tpox.Queries()[tpox.PaperQ2])
	cfg := []xindex.Definition{
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/SecInfo/*/Sector"), Type: xpath.StringVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security//Sector"), Type: xpath.StringVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/@id"), Type: xpath.StringVal},
	}
	if _, err := e.Opt.EvaluateIndexes(stmt, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Opt.EvaluateIndexes(stmt, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralizePair(b *testing.B) {
	pa := xpath.MustParse("/Security/Symbol")
	pb := xpath.MustParse("/Security/SecInfo/*/Sector")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.GeneralizePair(pa, pb); len(got) != 1 {
			b.Fatal("generalization broken")
		}
	}
}

// --- update-stream / incremental statistics benchmarks (PR 3) ---

// updateMixRound pushes one TPoX-style transaction batch through the
// engine: kInserts new securities, their deletion, and a few point/range
// queries, so the table returns to its starting size every round.
func updateMixRound(b *testing.B, eng *engine.Engine, round int) {
	b.Helper()
	const kInserts = 20
	exec := func(raw string) {
		if _, _, err := eng.Execute(xquery.MustParse(raw)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < kInserts; i++ {
		exec(fmt.Sprintf(
			`insert into SECURITY value <Security><Symbol>BM%06d-%02d</Symbol><Yield>%d.%d</Yield><SecInfo><StockInformation><Sector>Bench</Sector></StockInformation></SecInfo></Security>`,
			round, i, i%12, i%10))
		if i%5 == 0 {
			exec(`for $s in SECURITY('SDOC')/Security where $s/Yield > 7.5 return $s`)
		}
	}
	for i := 0; i < kInserts; i++ {
		exec(fmt.Sprintf(`delete from SECURITY where /Security[Symbol="BM%06d-%02d"]`, round, i))
	}
}

// BenchmarkUpdateThroughput measures one sustained update+query round
// including the statistics refresh that keeps subsequent plans honest:
// the live path folds the round's delta incrementally, the recollect
// path re-runs full RUNSTATS on the mutated table — what correctness
// cost before statistics became incrementally maintained.
func BenchmarkUpdateThroughput(b *testing.B) {
	run := func(b *testing.B, live bool) {
		db, err := tpox.NewDatabase(1)
		if err != nil {
			b.Fatal(err)
		}
		var opt *optimizer.Optimizer
		if live {
			opt = optimizer.NewLive(db)
		} else {
			opt = optimizer.New(db, optimizer.CollectStats(db))
		}
		tbl, err := db.Table(tpox.TableSecurity)
		if err != nil {
			b.Fatal(err)
		}
		// Tuned system: the Symbol index is materialized (as the advisor
		// recommends for this mix) online — a delete's transaction probes
		// only a feed-maintained index — so deletes probe instead of
		// scanning and the statistics-refresh strategy is what differs.
		cat := engine.NewCatalog()
		idx, err := xindex.BuildOnline(tbl, xindex.Definition{
			Table:   tpox.TableSecurity,
			Pattern: xpath.MustParsePattern("/Security/Symbol"),
			Type:    xpath.StringVal,
		})
		if err != nil {
			b.Fatal(err)
		}
		cat.Add(idx)
		eng := engine.New(db, opt, cat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			updateMixRound(b, eng, i)
			if live {
				if _, err := opt.TableStats(tpox.TableSecurity); err != nil {
					b.Fatal(err)
				}
			} else {
				// Fair baseline: re-collect only the mutated table, not
				// the whole database.
				xstats.Collect(tbl)
			}
		}
	}
	b.Run("live", func(b *testing.B) { run(b, true) })
	b.Run("recollect", func(b *testing.B) { run(b, false) })
}

// BenchmarkStatsRefreshAfterDelta isolates the statistics-refresh unit
// on TPoX scale 1: mutate, then bring the synopsis current.
//
//   - docs=200 is the batch shape: 100 clones of document 0 inserted
//     and deleted again, then Keeper.Stats. Compare with
//     BenchmarkCollectStats, the full re-pass the refresh replaces.
//   - The docs=1 arms are the serving shape, what one DML statement
//     pays before it can plan: one copy-on-write replace of a SECURITY
//     document (a new in-range Yield), or one insert plus one delete on
//     ORDERS, then Keeper.Stats and ForPattern of the table's key path.
func BenchmarkStatsRefreshAfterDelta(b *testing.B) {
	open := func(b *testing.B, table string) (*storage.Table, *xstats.Keeper) {
		db, err := tpox.NewDatabase(1)
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := db.Table(table)
		if err != nil {
			b.Fatal(err)
		}
		keeper := xstats.NewKeeper(tbl)
		keeper.Stats()
		return tbl, keeper
	}
	clone := func(src *xmltree.Document) *xmltree.Document {
		return &xmltree.Document{Nodes: append([]xmltree.Node(nil), src.Nodes...), Dict: src.Dict,
			PathIDs: append([]xmltree.PathID(nil), src.PathIDs...)}
	}
	b.Run("docs=200", func(b *testing.B) {
		tbl, keeper := open(b, tpox.TableSecurity)
		src, _ := tbl.Get(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var ids []int64
			for j := 0; j < 100; j++ {
				ids = append(ids, tbl.Insert(clone(src)))
			}
			for _, id := range ids {
				tbl.Delete(id)
			}
			b.StartTimer()
			keeper.Stats()
		}
	})
	b.Run("docs=1/security-replace", func(b *testing.B) {
		tbl, keeper := open(b, tpox.TableSecurity)
		key := xpath.MustParse("/Security/Symbol")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := int64(i % 1000)
			src, _ := tbl.Get(id)
			d := clone(src)
			for j := range d.Nodes {
				if d.Nodes[j].Name == "Yield" {
					// 1.00 .. 8.99: inside the generator's 0.00 .. 9.99.
					d.Nodes[j+1].Value = fmt.Sprintf("%.2f", 1+float64(i%800)/100)
				}
			}
			tbl.Replace(id, d)
			b.StartTimer()
			keeper.Stats().ForPattern(key, xpath.StringVal)
		}
	})
	b.Run("docs=1/orders-insert-delete", func(b *testing.B) {
		tbl, keeper := open(b, tpox.TableOrders)
		key := xpath.MustParse("/Order/@ID")
		src, _ := tbl.Get(0)
		order := func(i int) *xmltree.Document {
			d := clone(src)
			d.Nodes[1].Value = fmt.Sprintf("ORD9%08d", i) // the @ID attribute
			return d
		}
		// An order lives 64 iterations, as in xixabench's write stream.
		const lag = 64
		for i := 0; i < lag; i++ {
			tbl.Insert(order(i))
		}
		keeper.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl.Delete(tbl.Insert(order(lag+i)) - lag)
			b.StartTimer()
			keeper.Stats().ForPattern(key, xpath.StringVal)
		}
	})
}

// --- serving daemon / online build benchmarks (PR 4) ---

// BenchmarkServeThroughput measures statement throughput through the
// serving layer — session admission, capture sampling, and the
// lock-free catalog read path included — at full client parallelism
// (b.RunParallel). The untuned arm serves table-scan plans; the tuned
// arm first lets the tuning loop materialize the workload's index
// online, which is exactly what the autonomous daemon buys a live
// deployment.
func BenchmarkServeThroughput(b *testing.B) {
	run := func(b *testing.B, tune bool) {
		db, err := tpox.NewDatabase(1)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(db, server.Config{BuildAfter: 1})
		defer srv.Close()
		stmts := make([]*xquery.Statement, 64)
		for i := range stmts {
			stmts[i] = xquery.MustParse(fmt.Sprintf(
				`for $s in SECURITY('SDOC')/Security where $s/Symbol = "%s" return $s`, tpox.SymbolOf(i*13%1000)))
		}
		if tune {
			// Prime the capture and materialize the Symbol index online.
			sess, err := srv.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.ExecuteStmt(stmts[0]); err != nil {
				b.Fatal(err)
			}
			sess.Close()
			rep, err := srv.TuneOnce()
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Built) == 0 {
				b.Fatal("tuning built no index")
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sess, err := srv.NewSession()
			if err != nil {
				b.Error(err)
				return
			}
			defer sess.Close()
			i := 0
			for pb.Next() {
				if _, err := sess.ExecuteStmt(stmts[i%len(stmts)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	}
	b.Run("untuned", func(b *testing.B) { run(b, false) })
	b.Run("tuned", func(b *testing.B) { run(b, true) })
}

// BenchmarkShardedServe measures statement cost through the shard
// router as the shard count grows. The point arm executes key-pinned
// point queries on an untuned cluster: the router sends each to its
// one owning shard, which scans 1/N of the corpus, so per-op cost
// drops near-linearly with the shard count even on one core — the
// win is work reduction, not parallelism. The scan arm scatter-gathers
// an unkeyed predicate to every shard: the same total work plus
// fan-out overhead, the price of statements the router cannot pin.
func BenchmarkShardedServe(b *testing.B) {
	const docs = 1200
	run := func(b *testing.B, shards int, scatter bool) {
		c, err := shard.NewCluster(shard.Config{
			Shards: shards,
			Keys:   map[string]string{"SECURITY": "/Security/Symbol"},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if err := c.CreateTable("SECURITY"); err != nil {
			b.Fatal(err)
		}
		sess, err := c.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		for i := 0; i < docs; i++ {
			if _, err := sess.Execute(fmt.Sprintf(
				`insert into SECURITY value <Security><Symbol>BS%05d</Symbol><Yield>%d.%d</Yield><SecInfo><StockInformation><Sector>S%d</Sector></StockInformation></SecInfo></Security>`,
				i, i%10, i%10, i%8)); err != nil {
				b.Fatal(err)
			}
		}
		stmts := make([]*xquery.Statement, 64)
		for i := range stmts {
			if scatter {
				stmts[i] = xquery.MustParse(fmt.Sprintf(
					`for $s in SECURITY('SDOC')/Security where $s/SecInfo/StockInformation/Sector = "S%d" return $s`, i%8))
			} else {
				stmts[i] = xquery.MustParse(fmt.Sprintf(
					`for $s in SECURITY('SDOC')/Security where $s/Symbol = "BS%05d" return $s`, i*17%docs))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.ExecuteStmt(stmts[i%len(stmts)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("point/shards=%d", n), func(b *testing.B) { run(b, n, false) })
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("scan/shards=%d", n), func(b *testing.B) { run(b, n, true) })
	}
}

// BenchmarkOnlineBuildCatchup measures one BuildOnline of the Symbol
// index on a TPoX-scale table while a concurrent writer churns
// insert/delete pairs — the capture/buffer/catch-up state machine under
// real contention, versus BenchmarkIndexBuild's quiet-table cost.
func BenchmarkOnlineBuildCatchup(b *testing.B) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Table(tpox.TableSecurity)
	if err != nil {
		b.Fatal(err)
	}
	def := xindex.Definition{
		Table:   tpox.TableSecurity,
		Pattern: xpath.MustParsePattern("/Security/Symbol"),
		Type:    xpath.StringVal,
	}
	mkDoc := func(i int) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Security").Leaf("Symbol", fmt.Sprintf("CHURN%06d", i)).End().Document()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				id := tbl.Insert(mkDoc(j))
				tbl.Delete(id)
			}
		}()
		idx, err := xindex.BuildOnline(tbl, def)
		if err != nil {
			b.Fatal(err)
		}
		close(stop)
		<-done
		idx.Release()
	}
}

// BenchmarkTableChurn measures one steady-state delete+insert pair on a
// 20k-document table — the storage-layer unit cost of an update-heavy
// stream. The id→position map keeps the delete O(1); the seed spliced
// the insertion-order slice per delete, going quadratic under churn.
func BenchmarkTableChurn(b *testing.B) {
	tbl := storage.NewTable("CHURN")
	mk := func(i int) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Doc").Leaf("V", fmt.Sprintf("%d", i)).End().Document()
	}
	var ids []int64
	for i := 0; i < 20000; i++ {
		ids = append(ids, tbl.Insert(mk(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := ids[i%len(ids)]
		if !tbl.Delete(victim) {
			b.Fatal("delete failed")
		}
		ids[i%len(ids)] = tbl.Insert(mk(i))
	}
}

// benchWALDoc is the record payload of the commit benchmarks: a small
// TPoX-like security document (~100 bytes encoded), the realistic unit
// of one insert statement.
func benchWALDoc() *xmltree.Document {
	return xmltree.NewBuilder().
		Begin("Security").
		Leaf("Symbol", "BENCH001").
		Leaf("Yield", "4.5").
		End().Document()
}

// appendWALDoc logs one SECURITY insert the way a commit does: encode
// the payload, append it through AppendTxn.
func appendWALDoc(l *wal.Log, doc *xmltree.Document) (uint64, error) {
	p, err := wal.EncodeDocInsert("SECURITY", doc, 0)
	if err != nil {
		return 0, err
	}
	return l.AppendTxn([][]byte{p})
}

// BenchmarkCommitThroughput measures committed mutations per second at
// 8 concurrent writers under each durability discipline:
//
//   - sync-each: one fsync per statement, serialized — what a log
//     without group commit pays, and the baseline the ≥5x acceptance
//     criterion is measured against.
//   - group-always: wal.SyncAlways — every commit waits for an fsync,
//     but concurrent committers share one (group commit).
//   - batched: wal.SyncBatched — commits flush to the OS; fsync runs
//     in the background (bounded power-loss window).
//   - off: wal.SyncOff — flush only.
func BenchmarkCommitThroughput(b *testing.B) {
	const writers = 8
	doc := benchWALDoc()
	run := func(b *testing.B, policy wal.SyncPolicy, syncEach bool) {
		l, _, err := wal.Open(filepath.Join(b.TempDir(), "wal.log"), wal.Options{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		var syncMu sync.Mutex
		var remaining = int64(b.N)
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for atomic.AddInt64(&remaining, -1) >= 0 {
					if syncEach {
						// No grouping: the statement's fsync is its own.
						syncMu.Lock()
						_, err := appendWALDoc(l, doc)
						if err == nil {
							err = l.Sync()
						}
						syncMu.Unlock()
						if err != nil {
							errCh <- err
							return
						}
						continue
					}
					lsn, err := appendWALDoc(l, doc)
					if err == nil {
						err = l.Commit(lsn)
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	b.Run("sync-each/writers=8", func(b *testing.B) { run(b, wal.SyncAlways, true) })
	b.Run("group-always/writers=8", func(b *testing.B) { run(b, wal.SyncAlways, false) })
	b.Run("batched/writers=8", func(b *testing.B) { run(b, wal.SyncBatched, false) })
	b.Run("off/writers=8", func(b *testing.B) { run(b, wal.SyncOff, false) })
}

// BenchmarkMultiTableCommit measures the server's MVCC commit path: N
// concurrent writers issuing single-statement transactions through
// sessions.
//
//   - disjoint: writer w inserts into its own table — commits touch
//     different commit locks and never conflict, so throughput should
//     scale with the writer count (the pre-MVCC global writer lock
//     flattened this curve; the sharded stamp allocator removed the
//     remaining database-wide publish section).
//   - shared: every writer inserts into the SAME table — disjoint
//     documents, so commits never conflict, but they serialize on the
//     one table's commit lock; the gap to disjoint is the per-table
//     publish cost.
//   - conflicting: every writer updates the SAME document of one
//     table — the worst case, where first-writer-wins forces all but
//     one commit per round to retry on a fresh snapshot.
func BenchmarkMultiTableCommit(b *testing.B) {
	run := func(b *testing.B, writers int, mode string) {
		db := storage.NewDatabase()
		for w := 0; w < writers; w++ {
			tbl := db.MustCreateTable(fmt.Sprintf("T%02d", w))
			tbl.Insert(xmltree.NewBuilder().
				Begin("Security").Leaf("Symbol", "SEED").Leaf("Yield", "1.0").End().Document())
		}
		srv := server.New(db, server.Config{MaxConcurrent: writers, QueueDepth: 4 * writers})
		defer srv.Close()
		// Statements parse outside the timer: the benchmark isolates
		// snapshot + commit, not the parser.
		stmts := make([]*xquery.Statement, writers)
		sessions := make([]*server.Session, writers)
		for w := 0; w < writers; w++ {
			var raw string
			switch mode {
			case "disjoint":
				raw = fmt.Sprintf(`insert into T%02d value <Security><Symbol>W%02d</Symbol><Yield>4.5</Yield></Security>`, w, w)
			case "shared":
				raw = fmt.Sprintf(`insert into T00 value <Security><Symbol>W%02d</Symbol><Yield>4.5</Yield></Security>`, w)
			case "conflicting":
				raw = fmt.Sprintf(`update T00 set Yield = %d.5 where /Security[Symbol="SEED"]`, w)
			}
			stmt, err := xquery.Parse(raw)
			if err != nil {
				b.Fatal(err)
			}
			stmts[w] = stmt
			if sessions[w], err = srv.NewSession(); err != nil {
				b.Fatal(err)
			}
			defer sessions[w].Close()
		}
		remaining := int64(b.N)
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for atomic.AddInt64(&remaining, -1) >= 0 {
					_, err := sessions[w].ExecuteStmt(stmts[w])
					for errors.Is(err, storage.ErrConflict) {
						// The server retried 8 times and still lost every
						// round; a real client re-submits, so does the
						// benchmark.
						_, err = sessions[w].ExecuteStmt(stmts[w])
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("disjoint/writers=%d", w), func(b *testing.B) { run(b, w, "disjoint") })
	}
	for _, w := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("shared/writers=%d", w), func(b *testing.B) { run(b, w, "shared") })
	}
	for _, w := range []int{2, 8} {
		b.Run(fmt.Sprintf("conflicting/writers=%d", w), func(b *testing.B) { run(b, w, "conflicting") })
	}
}

// BenchmarkReplicatedReads measures the read fan-out a replica tier
// buys: a primary seeded with the TPoX corpus streams to N followers,
// and one reader per follower runs the same query against its
// follower's read-only server. Per-op time should hold roughly flat as
// followers are added (aggregate throughput scales with N): followers
// serve reads from local state and only pay the idle stream.
func BenchmarkReplicatedReads(b *testing.B) {
	run := func(b *testing.B, followers int) {
		srv, _, err := server.Recover(
			server.Config{WALDir: b.TempDir(), SyncPolicy: wal.SyncOff},
			func() (*storage.Database, error) { return tpox.NewDatabase(1) })
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		prim, err := replica.NewPrimary(srv, replica.PrimaryConfig{Heartbeat: 10 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer prim.Close()
		addr, err := prim.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}

		stmt, err := xquery.Parse(tpox.Queries()[0])
		if err != nil {
			b.Fatal(err)
		}
		tip := srv.WAL().LastLSN()
		sessions := make([]*server.Session, followers)
		for i := 0; i < followers; i++ {
			f, ferr := replica.StartFollower(replica.FollowerConfig{
				PrimaryAddr: addr,
				Dir:         b.TempDir(),
				Server:      server.Config{SyncPolicy: wal.SyncOff},
			})
			if ferr != nil {
				b.Fatal(ferr)
			}
			defer f.Close()
			for f.Info().AppliedLSN < tip {
				time.Sleep(time.Millisecond)
			}
			if sessions[i], err = f.Server().NewSession(); err != nil {
				b.Fatal(err)
			}
			defer sessions[i].Close()
		}

		remaining := int64(b.N)
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, followers)
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for atomic.AddInt64(&remaining, -1) >= 0 {
					if _, err := sessions[i].ExecuteStmt(stmt); err != nil {
						errCh <- err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("followers=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// BenchmarkRecoveryReplay measures replaying a 2000-record WAL tail —
// decode plus re-apply into a fresh database — the recovery-time cost
// a checkpoint bounds.
func BenchmarkRecoveryReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.log")
	l, _, err := wal.Open(path, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	const records = 2000
	for i := 0; i < records; i++ {
		doc := benchWALDoc()
		doc.DocID = int64(i)
		if _, err := appendWALDoc(l, doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, res, err := wal.Open(path, wal.Options{Policy: wal.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != records {
			b.Fatalf("replayed %d records, want %d", len(res.Records), records)
		}
		db := storage.NewDatabase()
		tbl := db.MustCreateTable("SECURITY")
		for _, rec := range res.Records {
			if rec.Kind != wal.RecDocInsert {
				b.Fatalf("unexpected record kind %v", rec.Kind)
			}
			if err := tbl.InsertAt(rec.Doc, rec.DocID); err != nil {
				b.Fatal(err)
			}
		}
		rl.Close()
	}
}

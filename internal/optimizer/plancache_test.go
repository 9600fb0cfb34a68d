package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

func TestPlanCacheHitsElideEvaluateCalls(t *testing.T) {
	_, opt := newFixture(t, 300)
	stmt := xquery.MustParse(oq2)
	cfg := []xindex.Definition{
		defOf("/Security/Yield", xpath.NumberVal),
		defOf("/Security/SecInfo/*/Sector", xpath.StringVal),
	}

	opt.EnablePlanCache(64)
	defer opt.DisablePlanCache()

	first, err := opt.EvaluateIndexes(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := opt.EvaluateCalls()
	for i := 0; i < 5; i++ {
		p, err := opt.EvaluateIndexes(stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.EstCost != first.EstCost {
			t.Fatalf("cached plan cost %v != original %v", p.EstCost, first.EstCost)
		}
	}
	if got := opt.EvaluateCalls(); got != calls {
		t.Errorf("cache hits incremented EvaluateCalls: %d -> %d", calls, got)
	}
	hits, misses, size := opt.PlanCacheStats()
	if hits != 5 || misses == 0 || size == 0 {
		t.Errorf("PlanCacheStats = (%d, %d, %d), want 5 hits and nonzero misses/size", hits, misses, size)
	}
}

func TestPlanCacheKeyIsConfigOrderInsensitive(t *testing.T) {
	_, opt := newFixture(t, 300)
	stmt := xquery.MustParse(oq2)
	a := defOf("/Security/Yield", xpath.NumberVal)
	b := defOf("/Security/SecInfo/*/Sector", xpath.StringVal)

	opt.EnablePlanCache(64)
	defer opt.DisablePlanCache()

	if _, err := opt.EvaluateIndexes(stmt, []xindex.Definition{a, b}); err != nil {
		t.Fatal(err)
	}
	calls := opt.EvaluateCalls()
	if _, err := opt.EvaluateIndexes(stmt, []xindex.Definition{b, a}); err != nil {
		t.Fatal(err)
	}
	if got := opt.EvaluateCalls(); got != calls {
		t.Error("reordered configuration missed the plan cache")
	}
}

func TestPlanCacheBoundedLRU(t *testing.T) {
	c := newPlanCache(2)
	p := &Plan{}
	c.put("a", p)
	c.put("b", p)
	if _, ok := c.get("a"); !ok { // touch a: b is now least recent
		t.Fatal("entry a missing")
	}
	c.put("c", p) // evicts b
	if c.len() != 2 {
		t.Fatalf("cache size = %d, want 2", c.len())
	}
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry a evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("newest entry c evicted")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	_, opt := newFixture(t, 300)
	opt.EnablePlanCache(8) // smaller than the working set: forces eviction under load
	defer opt.DisablePlanCache()
	stmts := []*xquery.Statement{
		xquery.MustParse(oq1),
		xquery.MustParse(oq2),
		xquery.MustParse(`SECURITY('SDOC')/Security[PE<12.0]`),
	}
	configs := [][]xindex.Definition{
		nil,
		{defOf("/Security/Symbol", xpath.StringVal)},
		{defOf("/Security/Yield", xpath.NumberVal)},
		{defOf("/Security/Symbol", xpath.StringVal), defOf("/Security/Yield", xpath.NumberVal)},
	}
	want := make(map[string]float64)
	for si, stmt := range stmts {
		for ci, cfg := range configs {
			p, err := opt.EvaluateIndexes(stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%d/%d", si, ci)] = p.EstCost
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				si := (g + i) % len(stmts)
				ci := i % len(configs)
				p, err := opt.EvaluateIndexes(stmts[si], configs[ci])
				if err != nil {
					errs <- err
					return
				}
				if got := want[fmt.Sprintf("%d/%d", si, ci)]; p.EstCost != got {
					errs <- fmt.Errorf("cost %v != expected %v", p.EstCost, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheInvalidatedByTableVersion asserts cache keys include the
// statistics version: after a table mutation, a live optimizer must
// re-optimize instead of serving the plan cached against the old
// statistics — the stale-plan half of the stale-statistics bug.
func TestPlanCacheInvalidatedByTableVersion(t *testing.T) {
	db, _ := newFixture(t, 300)
	opt := NewLive(db)
	opt.EnablePlanCache(64)
	defer opt.DisablePlanCache()

	stmt := xquery.MustParse(oq2)
	cfg := []xindex.Definition{defOf("/Security/Yield", xpath.NumberVal)}
	before, err := opt.EvaluateIndexes(stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := opt.EvaluateCalls()
	// Warm: repeated evaluation is a hit.
	if _, err := opt.EvaluateIndexes(stmt, cfg); err != nil {
		t.Fatal(err)
	}
	if got := opt.EvaluateCalls(); got != calls {
		t.Fatalf("warm hit re-optimized: %d -> %d calls", calls, got)
	}

	// Mutate the table: grow it by a third.
	tbl, err := db.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("V%05d", i)).
			LeafFloat("Yield", 5.0+float64(i%40)/10).
			End().Document()
		tbl.Insert(d)
	}

	after, err := opt.EvaluateIndexes(xquery.MustParse(oq2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.EvaluateCalls(); got != calls+1 {
		t.Fatalf("post-mutation evaluation did not re-optimize: %d -> %d calls", calls, got)
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
		t.Fatalf("live cached path (%v,%v) != fresh stats (%v,%v)",
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
	tbl, err := db.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	stmts := make([]*xquery.Statement, 215)
	for i := range stmts {
		stmts[i] = xquery.MustParse(fmt.Sprintf(
			`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "S%05d" return $sec`, i))
	}
	for round := 0; round < 100; round++ {
		// One mutation a round: every statement's compilation is stale.
		tbl.Insert(xmltree.NewBuilder().Begin("Security").
			Leaf("Symbol", fmt.Sprintf("R%05d", round)).End().Document())
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

package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xindex"
)

// The advisor must support concurrent searches sharing one instance:
// Recommend, ConfigBenefit, StandaloneBenefit, and WorkloadCostUnder
// may all run from multiple goroutines (a tuning service answering
// several what-if sessions at once). Run with -race.
func TestConcurrentAdvisorCalls(t *testing.T) {
	stmts := []string{
		aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
		`SECURITY('SDOC')/Security[Yield<2.5]`,
	}
	a := newFixture(t, 300, stmts...)
	budget := a.AllIndexSize()
	algos := Algorithms()
	all := a.AllIndexConfig()
	defs := []xindex.Definition{all[0].Def}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := a.Recommend(algos[(g+i)%len(algos)], budget); err != nil {
					errs <- err
					return
				}
				a.eval.ConfigBenefit(all)
				a.eval.StandaloneBenefit(all[(g+i)%len(all)])
				a.WorkloadCostUnder(defs)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if a.eval.CacheHits.Load() == 0 {
		t.Error("concurrent searches recorded no sub-configuration cache hits")
	}
}

// Concurrent identical benefit evaluations must agree (the sharded
// cache and once-guarded standalone benefits are deterministic).
func TestConcurrentBenefitsDeterministic(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2)
	all := a.AllIndexConfig()
	benefits := make([]float64, 16)
	var wg sync.WaitGroup
	for i := range benefits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			benefits[i] = a.eval.ConfigBenefit(all)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(benefits); i++ {
		if benefits[i] != benefits[0] {
			t.Fatalf("concurrent benefits differ: %v", benefits)
		}
	}
}

// newParallelFixture builds two advisors over the same database and
// workload, differing only in Parallelism.
func newParallelFixture(t *testing.T, stmts []string) (serial, parallel *Advisor) {
	t.Helper()
	base := newFixture(t, 300, stmts...)
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(parallelism int) *Advisor {
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		a, err := New(base.DB, base.Opt, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return mk(1), mk(8)
}

// The parallel pipeline is an execution strategy, not a semantics
// change: Parallelism: 8 must reproduce the Parallelism: 1 pipeline
// bit-for-bit — same candidates, same recommended configuration, same
// benefit, and (with the plan cache off) the same number of Evaluate
// Indexes optimizer calls for every search algorithm.
func TestParallelismDeterminism(t *testing.T) {
	stmts := []string{
		aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
		`SECURITY('SDOC')/Security[Yield<2.5]`,
		`delete from SECURITY where /Security[Symbol="S00007"]`,
	}
	serial, parallel := newParallelFixture(t, stmts)

	if got, want := candidateStrings(parallel.Candidates.All), candidateStrings(serial.Candidates.All); len(got) != len(want) {
		t.Fatalf("candidate sets differ: %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("candidate %d differs: %q vs %q", i, got[i], want[i])
			}
		}
	}
	if s, p := serial.eval.BaselineCost(), parallel.eval.BaselineCost(); s != p {
		t.Fatalf("baseline cost differs: serial %v, parallel %v", s, p)
	}

	budget := serial.AllIndexSize() / 2
	for _, algo := range Algorithms() {
		sr, err := serial.Recommend(algo, budget)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := parallel.Recommend(algo, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Config) != len(pr.Config) {
			t.Fatalf("%s: config sizes differ: %d vs %d", algo, len(sr.Config), len(pr.Config))
		}
		for i := range sr.Config {
			if sr.Config[i].ID != pr.Config[i].ID {
				t.Fatalf("%s: config[%d] differs: %d vs %d", algo, i, sr.Config[i].ID, pr.Config[i].ID)
			}
		}
		if sr.Benefit != pr.Benefit {
			t.Fatalf("%s: benefit differs: serial %v, parallel %v", algo, sr.Benefit, pr.Benefit)
		}
		if sr.TotalSize != pr.TotalSize {
			t.Fatalf("%s: total size differs: %d vs %d", algo, sr.TotalSize, pr.TotalSize)
		}
		if sr.OptimizerCalls != pr.OptimizerCalls {
			t.Fatalf("%s: optimizer calls differ: serial %d, parallel %d",
				algo, sr.OptimizerCalls, pr.OptimizerCalls)
		}
	}
}

// §VI-C's sub-configuration cache and the parallel fan-out only save
// work: on generated workloads (the Table III query generator plus the
// update statements), every algorithm must recommend the same
// definitions with the same benefit bits with the cache off and at
// Parallelism 1 and 4 as under the default options.
func TestRecommendationInvariantUnderCacheAndParallelism(t *testing.T) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"DisableSubConfigCache", func(o *Options) { o.DisableSubConfigCache = true }},
		{"Parallelism 1", func(o *Options) { o.Parallelism = 1 }},
		{"Parallelism 4", func(o *Options) { o.Parallelism = 4 }},
	}
	type answer struct {
		defs        []string
		benefitBits uint64
	}
	for seed := int64(1); seed <= seeds; seed++ {
		stmts := append(tpox.SyntheticQueries(db, 60, seed), tpox.UpdateStatements()...)
		w, err := workload.ParseStatements(stmts)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(db, optimizer.CollectStats(db))
		want := make(map[string]answer)
		for _, v := range variants {
			opts := DefaultOptions()
			v.set(&opts)
			for _, algo := range Algorithms() {
				a, err := New(db, opt, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := a.Recommend(algo, a.AllIndexSize()/3)
				if err != nil {
					t.Fatal(err)
				}
				got := answer{benefitBits: math.Float64bits(rec.Benefit)}
				for _, d := range rec.Definitions() {
					got.defs = append(got.defs, d.String())
				}
				if v.name == variants[0].name {
					want[algo] = got
				} else if !reflect.DeepEqual(got, want[algo]) {
					t.Errorf("seed %d, %s, %s:\n got %v, benefit bits %#x\nwant %v, benefit bits %#x (default options)",
						seed, algo, v.name, got.defs, got.benefitBits, want[algo].defs, want[algo].benefitBits)
				}
			}
		}
	}
}

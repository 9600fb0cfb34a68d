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

// Concurrent identical benefit evaluations must agree (the shared
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

// An advisor leaves nothing on its optimizer that changes the next
// one's answer: two fresh advisors over the same database and workload,
// built one after the other on one shared optimizer (the second finds
// the first's compiled statements and probe memos warm), must agree
// bit-for-bit — same candidates, same baseline, and for every search
// algorithm the same configuration, benefit, size and number of
// Evaluate Indexes calls.
func TestSharedOptimizerDeterminism(t *testing.T) {
	stmts := []string{
		aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
		`SECURITY('SDOC')/Security[Yield<2.5]`,
		`delete from SECURITY where /Security[Symbol="S00007"]`,
	}
	base := newFixture(t, 300, stmts...)
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(base.DB, optimizer.CollectStats(base.DB))
	mk := func() *Advisor {
		a, err := New(base.DB, opt, w, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	first, second := mk(), mk()

	if got, want := candidateStrings(second.Candidates.All), candidateStrings(first.Candidates.All); !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate sets differ:\n%q\n%q", got, want)
	}
	if f, s := first.eval.BaselineCost(), second.eval.BaselineCost(); f != s {
		t.Fatalf("baseline cost differs: first %v, second %v", f, s)
	}

	budget := first.AllIndexSize() / 2
	for _, algo := range Algorithms() {
		fr, err := first.Recommend(algo, budget)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := second.Recommend(algo, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := candidateIDs(sr.Config), candidateIDs(fr.Config); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: configurations differ: %v vs %v", algo, want, got)
		}
		if math.Float64bits(fr.Benefit) != math.Float64bits(sr.Benefit) {
			t.Fatalf("%s: benefit differs: first %v, second %v", algo, fr.Benefit, sr.Benefit)
		}
		if fr.TotalSize != sr.TotalSize {
			t.Fatalf("%s: total size differs: %d vs %d", algo, fr.TotalSize, sr.TotalSize)
		}
		if fr.OptimizerCalls != sr.OptimizerCalls {
			t.Fatalf("%s: optimizer calls differ: first %d, second %d",
				algo, fr.OptimizerCalls, sr.OptimizerCalls)
		}
	}
}

// §VI-C's sub-configuration cache only saves work: on generated
// workloads (the Table III query generator plus the update statements),
// every algorithm must recommend the same definitions with the same
// benefit bits with the cache off as under the default options. (The
// DisableAffectedSets ablation is not bit-identical: it sums gains over
// the whole workload rather than per group, so a benefit can move in
// the last bit and flip a close choice.)
func TestRecommendationInvariantUnderSubConfigCache(t *testing.T) {
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

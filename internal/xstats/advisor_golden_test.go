package xstats_test

import (
	"testing"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xstats"
)

// TestAdvisorGoldenAgainstReferenceStats runs the full advisor pipeline
// twice over the same TPoX database — once on statistics from the seed
// recursive collector (xstats.CollectReference) and once on the
// single-pass PathID-keyed collector — and asserts that for every
// search algorithm the recommendations, benefits, and optimizer call
// counts are bit-identical. Together with the package's golden tests
// this pins the whole refactored path: dictionary, collector,
// pattern matching, and compiled-statement planning.
func TestAdvisorGoldenAgainstReferenceStats(t *testing.T) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}

	refStats := make(map[string]*xstats.TableStats)
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		refStats[name] = xstats.CollectReference(tbl)
	}
	newStats := optimizer.CollectStats(db)

	type result struct {
		defs    []string
		benefit float64
		enum    int64
		eval    int64
	}
	run := func(stats map[string]*xstats.TableStats, algo string) result {
		opt := optimizer.New(db, stats)
		w, err := workload.ParseStatements(tpox.Queries())
		if err != nil {
			t.Fatal(err)
		}
		adv, err := core.New(db, opt, w, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := adv.Recommend(algo, adv.AllIndexSize()/2)
		if err != nil {
			t.Fatal(err)
		}
		var defs []string
		for _, d := range rec.Definitions() {
			defs = append(defs, d.String())
		}
		return result{defs: defs, benefit: rec.Benefit, enum: opt.EnumerateCalls(), eval: opt.EvaluateCalls()}
	}

	for _, algo := range core.Algorithms() {
		ref := run(refStats, algo)
		got := run(newStats, algo)
		if len(got.defs) != len(ref.defs) {
			t.Fatalf("%s: %d recommendations, want %d (%v vs %v)", algo, len(got.defs), len(ref.defs), got.defs, ref.defs)
		}
		for i := range got.defs {
			if got.defs[i] != ref.defs[i] {
				t.Errorf("%s: recommendation[%d] = %q, want %q", algo, i, got.defs[i], ref.defs[i])
			}
		}
		if got.benefit != ref.benefit {
			t.Errorf("%s: benefit = %v, want %v", algo, got.benefit, ref.benefit)
		}
		if got.enum != ref.enum || got.eval != ref.eval {
			t.Errorf("%s: optimizer calls = (%d,%d), want (%d,%d)", algo, got.enum, got.eval, ref.enum, ref.eval)
		}
	}
}

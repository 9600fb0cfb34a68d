package core

import (
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
)

func TestSearchZeroAndTinyBudgets(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	for _, algo := range Algorithms() {
		for _, budget := range []int64{0, 1, 100} {
			rec, err := a.Recommend(algo, budget)
			if err != nil {
				t.Fatalf("%s at %d: %v", algo, budget, err)
			}
			if len(rec.Config) != 0 {
				t.Errorf("%s at budget %d recommended %d indexes", algo, budget, len(rec.Config))
			}
			if rec.TotalSize != 0 || rec.Benefit != 0 {
				t.Errorf("%s at budget %d: size=%d benefit=%v", algo, budget, rec.TotalSize, rec.Benefit)
			}
		}
	}
}

func TestSearchExactBoundaryBudget(t *testing.T) {
	a := newFixture(t, 200, aq1)
	c := a.Candidates.Basic()[0]
	for _, algo := range Algorithms() {
		rec, err := a.Recommend(algo, c.SizeBytes) // exactly one index fits
		if err != nil {
			t.Fatal(err)
		}
		if rec.TotalSize > c.SizeBytes {
			t.Errorf("%s exceeded exact budget: %d > %d", algo, rec.TotalSize, c.SizeBytes)
		}
		if len(rec.Config) == 0 {
			t.Errorf("%s did not use the exactly-fitting budget", algo)
		}
		below, err := a.Recommend(algo, c.SizeBytes-1) // one byte short
		if err != nil {
			t.Fatal(err)
		}
		for _, chosen := range below.Config {
			if chosen.SizeBytes > c.SizeBytes-1 {
				t.Errorf("%s chose an index larger than the budget", algo)
			}
		}
	}
}

func TestRecommendDeterministic(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`)
	for _, algo := range Algorithms() {
		budget := a.AllIndexSize() / 2
		first, err := a.Recommend(algo, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := a.Recommend(algo, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.Config) != len(first.Config) {
				t.Fatalf("%s nondeterministic: %d vs %d indexes", algo, len(again.Config), len(first.Config))
			}
			for j := range again.Config {
				if again.Config[j].ID != first.Config[j].ID {
					t.Fatalf("%s nondeterministic at position %d", algo, j)
				}
			}
		}
	}
}

func TestMultiTableWorkload(t *testing.T) {
	// Queries over all three TPoX tables: candidates must carry their
	// tables, sub-configurations must not mix tables, and the
	// recommendation should span tables.
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	stats := optimizer.CollectStats(db)
	opt := optimizer.New(db, stats)
	w, err := workload.ParseStatements(tpox.Queries())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(db, opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]bool{}
	for _, c := range a.Candidates.All {
		tables[c.Def.Table] = true
	}
	if len(tables) != 3 {
		t.Errorf("candidates span %d tables, want 3: %v", len(tables), tables)
	}
	// Sub-configurations never mix tables (affected sets are per
	// statement, and a statement touches one table).
	groups := splitGroups(a.Candidates.Basic())
	for _, g := range groups {
		seen := map[string]bool{}
		for _, c := range g {
			seen[c.Def.Table] = true
		}
		if len(seen) != 1 {
			t.Errorf("sub-configuration mixes tables: %v", candidateStrings(g))
		}
	}
	rec, err := a.Recommend(AlgoHeuristic, a.AllIndexSize())
	if err != nil {
		t.Fatal(err)
	}
	recTables := map[string]bool{}
	for _, c := range rec.Config {
		recTables[c.Def.Table] = true
	}
	if len(recTables) < 2 {
		t.Errorf("recommendation covers %d tables: %v", len(recTables), candidateStrings(rec.Config))
	}
}

func TestGeneralizationRespectsTables(t *testing.T) {
	// Candidates from different tables must never generalize together.
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	stats := optimizer.CollectStats(db)
	opt := optimizer.New(db, stats)
	w, err := workload.ParseStatements([]string{
		`for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00001" return $s`,
		`for $o in ORDERS('ODOC')/Order where $o/Symbol = "SYM00001" return $o`,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(db, opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both queries compare a Symbol path, but in different tables; no
	// cross-table generalization like //Symbol must appear.
	for _, g := range a.Candidates.Generalized() {
		if g.Def.Pattern.String() == "//Symbol" {
			t.Errorf("cross-table generalization produced %s", g)
		}
	}
}

func TestDPHandlesOversizedCandidates(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	// A budget below every candidate: DP must return empty, not panic
	// on weight > cap.
	rec, err := a.Recommend(AlgoDP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Config) != 0 {
		t.Errorf("DP at 10-byte budget chose %v", candidateStrings(rec.Config))
	}
}

func TestTopDownFallbackToGreedy(t *testing.T) {
	// A budget too small for any general candidate forces top-down into
	// its greedy fallback over specifics (§VI-B's final step).
	a := newFixture(t, 200, aq1, aq2)
	smallest := a.Candidates.Basic()[0].SizeBytes
	for _, c := range a.Candidates.Basic() {
		if c.SizeBytes < smallest {
			smallest = c.SizeBytes
		}
	}
	rec, err := a.Recommend(AlgoTopDownFull, smallest)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalSize > smallest {
		t.Errorf("fallback exceeded budget: %d > %d", rec.TotalSize, smallest)
	}
	if rec.GeneralCount() > 0 {
		t.Errorf("fallback recommended generals at minimal budget")
	}
}

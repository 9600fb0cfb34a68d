package xpath_test

import (
	"slices"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// TestPathSetMatchesLabelPaths: a PathSet extended over a dictionary in
// two steps, as a table's dictionary grows, reports each PathID the
// pattern accepts once, in ascending order, and holds exactly the
// PathIDs MatchesLabelPath accepts.
func TestPathSetMatchesLabelPaths(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 30, Orders: 30, Customers: 10, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{tpox.TableSecurity, tpox.TableCustAcc} {
		tbl, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		dict := tbl.PathDict()
		snap := dict.Snapshot()
		for _, pat := range []string{"/Security/Symbol", "//*", "//@*", "/Security//Sector", "/Customer/*/Account/@id", "//Account//*", "/Nothing", "/*/*/*"} {
			p := xpath.MustParsePattern(pat)
			set := xpath.NewPathSet(p)
			added := set.Extend(snap[:len(snap)/2])
			added = append(added, set.Extend(snap)...)
			if again := set.Extend(snap); again != nil {
				t.Errorf("%s on %s: a second Extend over the same entries reports %v", pat, table, again)
			}
			var want []xmltree.PathID
			for pid := range snap {
				id := xmltree.PathID(pid)
				in := xpath.MatchesLabelPath(p, dict.Labels(id))
				if in {
					want = append(want, id)
				}
				if set.Has(id) != in {
					t.Errorf("%s on %s: Has(%s) = %v", pat, table, dict.Path(id), !in)
				}
			}
			if !slices.Equal(added, want) {
				t.Errorf("%s on %s: Extend reported %v, want %v", pat, table, added, want)
			}
			if set.Has(xmltree.NoPath) || set.Has(xmltree.PathID(len(snap))) {
				t.Errorf("%s on %s: Has answers for a PathID outside the dictionary", pat, table)
			}
		}
	}
}

// TestCheckSteps: 30 steps is the most a pattern may have; predicates
// do not count.
func TestCheckSteps(t *testing.T) {
	at := xpath.MustParse("/r" + strings.Repeat("/a[b=1]", 29))
	if err := xpath.CheckSteps(at); err != nil {
		t.Fatalf("30 steps: %v", err)
	}
	if err := xpath.CheckSteps(xpath.MustParse("/r" + strings.Repeat("/a", 30))); err == nil || !strings.Contains(err.Error(), "31 steps; at most 30") {
		t.Fatalf("31 steps: %v", err)
	}
}

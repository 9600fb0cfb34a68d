package xpath_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xmark"
	"xixa/internal/xpath"
)

// Contains rejects some pairs before the subset construction runs
// (cannotContain). The reject may only answer what the construction
// would: on edge cases, generated pairs and the candidate pairs of
// real advisors, Contains must equal ContainsUncached, and those
// advisors' coverage matrices must be the ones the construction alone
// gives.
func TestContainsRejectMatchesSubsetConstruction(t *testing.T) {
	check := func(super, sub xpath.Path) bool {
		t.Helper()
		got, want := xpath.Contains(super, sub), xpath.ContainsUncached(super, sub)
		if got != want {
			t.Errorf("Contains(%q, %q) = %v, subset construction %v", super, sub, got, want)
		}
		return got
	}

	// "/" and "." are the step-less patterns, which do not parse.
	pat := func(s string) xpath.Path {
		switch s {
		case "/":
			return xpath.Path{}
		case ".":
			return xpath.Path{Relative: true}
		}
		return xpath.MustParse(s)
	}

	// sub = /a/@b/c matches no path (attributes end label paths), so
	// every pattern contains it, whatever the final names say.
	for _, super := range []string{"/a/@b/c", "/x/y", "/a/@b/d", "//@b", "/"} {
		if !check(pat(super), pat("/a/@b/c")) {
			t.Errorf("%s does not contain the empty language of /a/@b/c", super)
		}
	}
	edges := []string{
		"/", ".", "/a", "a", ".//a", "/a/*", "/a/@*", "/a//*", "//@*",
		"/a/@x", "/a/x", "//x", "//@x", "/a/b", "/a/b/x", "/a/*/x", "/*",
	}
	for _, super := range edges {
		for _, sub := range edges {
			check(pat(super), pat(sub))
		}
	}
	if check(pat("/a/x"), pat("/a/@x")) || check(pat("/a/@x"), pat("/a/x")) {
		t.Error("an attribute and an element of one name contain each other")
	}

	// Generated pairs: element and attribute names, wildcards of both
	// kinds, attribute steps anywhere (some languages are empty),
	// relative and step-less patterns.
	r := rand.New(rand.NewSource(1))
	tests := []string{"a", "b", "x", "*", "@a", "@x", "@*"}
	gen := func() xpath.Path {
		p := xpath.Path{Relative: r.Intn(4) == 0}
		for i := r.Intn(5); i > 0; i-- {
			st := xpath.Step{Axis: xpath.Child, Test: tests[r.Intn(len(tests))]}
			if r.Intn(3) == 0 {
				st.Axis = xpath.Descendant
			}
			p.Steps = append(p.Steps, st)
		}
		return p
	}
	for i := 0; i < 20000; i++ {
		check(gen(), gen())
	}

	// The candidate pairs of the advisor's coverage matrix.
	tpoxDB, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	xmarkDB, err := xmark.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	type querySet struct {
		name  string
		db    *storage.Database
		stmts []string
	}
	sets := []querySet{
		{"TPoX", tpoxDB, append(tpox.Queries(), tpox.UpdateStatements()...)},
		{"XMark", xmarkDB, xmark.Queries()},
	}
	for seed := int64(1); seed <= 3; seed++ {
		sets = append(sets, querySet{fmt.Sprintf("synthetic seed %d", seed), tpoxDB, tpox.SyntheticQueries(tpoxDB, 200, seed)})
	}
	for _, set := range sets {
		w, err := workload.ParseStatements(set.stmts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.New(set.db, optimizer.New(set.db, optimizer.CollectStats(set.db)), w, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		all := a.Candidates.All
		with, without := make([][]bool, len(all)), make([][]bool, len(all))
		for i, c := range all {
			with[i], without[i] = make([]bool, len(all)), make([]bool, len(all))
			for j, o := range all {
				if c.Def.Table != o.Def.Table || c.Def.Type != o.Def.Type {
					continue
				}
				with[i][j] = check(c.Def.Pattern, o.Def.Pattern)
				without[i][j] = xpath.ContainsUncached(c.Def.Pattern, o.Def.Pattern)
			}
		}
		if !reflect.DeepEqual(with, without) {
			t.Errorf("%s: the coverage matrix differs with the reject", set.name)
		}
		t.Logf("%s: %d candidates", set.name, len(all))
	}
}

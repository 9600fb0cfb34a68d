package xpath

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContainsBasic(t *testing.T) {
	cases := []struct {
		super, sub string
		want       bool
	}{
		// The paper's running example: /Security//* covers C1 and C2.
		{"/Security//*", "/Security/Symbol", true},
		{"/Security//*", "/Security/SecInfo/*/Sector", true},
		{"/Security//*", "/Security/Yield", true},
		{"/Security/Symbol", "/Security//*", false},
		// Reflexivity.
		{"/Security/Symbol", "/Security/Symbol", true},
		// //Yield covers /Security/Yield (Section I example).
		{"//Yield", "/Security/Yield", true},
		{"/Security/Yield", "//Yield", false},
		// /Security/* covers /Security/Yield.
		{"/Security/*", "/Security/Yield", true},
		{"/Security/*", "/Security/SecInfo/StockInformation/Sector", false},
		// Descendant vs fixed-depth wildcard.
		{"/a//b", "/a/*/b", true},
		{"/a/*/b", "/a//b", false},
		{"/a//b", "/a/b", true},
		{"/a//b", "/a/x/y/b", true},
		// Universal index covers everything element-ish.
		{"//*", "/a/b/c", true},
		{"//*", "//Sector", true},
		{"//*", "/a/@id", false}, // attributes not covered by element wildcard
		{"//@*", "/a/@id", true},
		{"//@*", "/a/b", false},
		// Rule-4 examples from the paper: /a//d covers both inputs.
		{"/a//d", "/a/b/d", true},
		{"/a//d", "/a/d/b/d", true},
		{"/a//b/d", "/a/d/b/d", true},
		{"/a//b/d", "/a/b/d", true},
		{"/a//b/d", "/a/b/x/d", false},
		// Wildcards in the middle.
		{"/a//*", "/a/*/b", true},
		{"/a/*/*", "/a/b/c", true},
		{"/a/*/*", "/a/b", false},
		// Different roots.
		{"/a/b", "/c/b", false},
		{"//b", "/c/b", true},
	}
	for _, tc := range cases {
		super := MustParse(tc.super)
		sub := MustParse(tc.sub)
		if got := Contains(super, sub); got != tc.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", tc.super, tc.sub, got, tc.want)
		}
	}
}

func TestContainsStripsPredicates(t *testing.T) {
	super := MustParse("/Security//*")
	sub := MustParse(`/Security[Yield>4.5]/Symbol`)
	if !Contains(super, sub) {
		t.Error("Contains should operate on linear skeletons")
	}
}

func TestEquivalent(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"/a/b", "/a/b", true},
		{"/a//b", "/a//b", true},
		{"/a/b", "/a//b", false},
		// Same language, different spelling: //*//b and //b both mean
		// "any b at depth >= 2"? No: //b includes depth 1, //*//b does not.
		{"//b", "//*//b", false},
		// /a//*//b vs /a/*//b: both require at least one intermediate.
		{"/a//*//b", "/a/*//b", true},
	}
	for _, tc := range cases {
		if got := Equivalent(MustParse(tc.a), MustParse(tc.b)); got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRewriteMiddleWildcards(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/a/*/b", "/a//b"},
		{"/a/*/*/b", "/a//b"},
		{"/a//*/b", "/a//b"},
		{"/a/*//b", "/a//b"},
		{"/Security/*", "/Security/*"},   // last-step wildcard untouched
		{"/Security//*", "/Security//*"}, // last-step wildcard untouched
		{"/a/b/c", "/a/b/c"},
		{"/*/b", "//b"},
		{"/*", "/*"},
	}
	for _, tc := range cases {
		got := Path{Steps: AppendMiddleWildcardsRewritten(nil, MustParse(tc.in).Steps)}.String()
		if got != tc.want {
			t.Errorf("AppendMiddleWildcardsRewritten(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRewriteMiddleWildcardsGeneralizes(t *testing.T) {
	for _, in := range []string{"/a/*/b", "/a/*/*/b", "/x/*//y", "/*/q"} {
		p := MustParse(in)
		g := Path{Steps: AppendMiddleWildcardsRewritten(nil, p.Steps)}
		if !Contains(g, p) {
			t.Errorf("AppendMiddleWildcardsRewritten(%q) = %q does not cover its input", in, g.String())
		}
	}
}

// randomPattern generates a random linear pattern over a small label set.
func randomPattern(r *rand.Rand) Path {
	labels := []string{"a", "b", "c", "*"}
	n := 1 + r.Intn(4)
	p := Path{}
	for i := 0; i < n; i++ {
		st := Step{Axis: Child, Test: labels[r.Intn(len(labels))]}
		if r.Intn(3) == 0 {
			st.Axis = Descendant
		}
		p.Steps = append(p.Steps, st)
	}
	return p
}

// randomLabelPath generates a random rooted label path.
func randomLabelPath(r *rand.Rand) []string {
	labels := []string{"a", "b", "c", "d"}
	n := 1 + r.Intn(5)
	out := make([]string, n)
	for i := range out {
		out[i] = labels[r.Intn(len(labels))]
	}
	return out
}

// TestPropertyContainsSoundness: if Contains(I, Q) then every label path
// matched by Q must be matched by I.
func TestPropertyContainsSoundness(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		super := randomPattern(r)
		sub := randomPattern(r)
		if !Contains(super, sub) {
			return true // nothing to check
		}
		for i := 0; i < 50; i++ {
			lp := randomLabelPath(r)
			if MatchesLabelPath(sub, lp) && !MatchesLabelPath(super, lp) {
				t.Logf("counterexample: super=%s sub=%s path=%v", super, sub, lp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyContainsCompleteness: if every sampled path matched by Q is
// matched by I AND Contains says false, there should exist some witness
// path; we verify the reported false by searching for a witness among
// exhaustively enumerated short paths.
func TestPropertyContainsCompleteness(t *testing.T) {
	labels := []string{"a", "b", "c", "z"} // z acts as the fresh label
	var paths [][]string
	var gen func(prefix []string, depth int)
	gen = func(prefix []string, depth int) {
		if len(prefix) > 0 {
			cp := make([]string, len(prefix))
			copy(cp, prefix)
			paths = append(paths, cp)
		}
		if depth == 0 {
			return
		}
		for _, l := range labels {
			gen(append(prefix, l), depth-1)
		}
	}
	// Witnesses can be longer than the patterns: descendant steps force
	// extra symbols (e.g. /b/*/a//* vs /b//a/* needs a length-5 witness).
	// Depth 7 safely covers 4-step patterns.
	gen(nil, 7)

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		super := randomPattern(r)
		sub := randomPattern(r)
		if Contains(super, sub) {
			return true
		}
		for _, lp := range paths {
			if MatchesLabelPath(sub, lp) && !MatchesLabelPath(super, lp) {
				return true
			}
		}
		// No witness found: patterns must actually be contained, so this
		// is a completeness failure.
		t.Logf("no witness for reported non-containment: super=%s sub=%s", super, sub)
		return false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyContainsReflexiveTransitive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomPattern(r), randomPattern(r), randomPattern(r)
		if !Contains(a, a) {
			return false
		}
		if Contains(a, b) && Contains(b, c) && !Contains(a, c) {
			t.Logf("transitivity violated: a=%s b=%s c=%s", a, b, c)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContainsCacheConsistency(t *testing.T) {
	a := MustParse("/a//b")
	b := MustParse("/a/x/b")
	first := Contains(a, b)
	for i := 0; i < 10; i++ {
		if Contains(a, b) != first {
			t.Fatal("cache returned inconsistent result")
		}
	}
}

// The containment cache key is each path's linear form, appended
// without building the stripped copy: it must be byte-identical to
// StripPreds().String(), and a predicate-bearing path must get the
// answer of its stripped form, relative and .// first steps included.
func TestContainsKeyIsLinearForm(t *testing.T) {
	cases := []struct{ super, sub string }{
		{"/Security//*", `/Security[Yield>4.5]/Symbol`},
		{`/Security[Symbol="S1"]//*`, `/Security/SecInfo/*[Sector="Energy"]/Sector`},
		{"//Yield", `/Security[@id>3]/Yield`},
		{"Security/Yield", `Security[Yield<1]/Yield`},
		{".//Sector", `.//SecInfo[Industry="x"]//Sector`},
		{`.//*[@id]`, "./Security/@id"},
		{"/a/*/b", `/a/x[y=1]/b`},
		{"//@*", `/a[b="c"]/@id`},
	}
	for _, tc := range cases {
		super, sub := MustParse(tc.super), MustParse(tc.sub)
		for _, p := range []Path{super, sub} {
			if got, want := string(AppendLinear(nil, p)), p.StripPreds().String(); got != want {
				t.Errorf("linear form of %q = %q, want %q", p, got, want)
			}
		}
		if got, want := Contains(super, sub), Contains(super.StripPreds(), sub.StripPreds()); got != want {
			t.Errorf("Contains(%q, %q) = %v, stripped forms say %v", tc.super, tc.sub, got, want)
		}
		if got, want := Contains(sub, super), Contains(sub.StripPreds(), super.StripPreds()); got != want {
			t.Errorf("Contains(%q, %q) = %v, stripped forms say %v", tc.sub, tc.super, got, want)
		}
	}
	for _, p := range []Path{{}, {Relative: true}} {
		if got, want := string(AppendLinear(nil, p)), p.StripPreds().String(); got != want {
			t.Errorf("linear form of empty path (relative %v) = %q, want %q", p.Relative, got, want)
		}
	}
}

// A Contains cache hit allocates nothing: the candidate generator and
// the index matcher ask the same questions thousands of times a round.
func TestContainsHitAllocatesNothing(t *testing.T) {
	super := MustParse("/Security//*")
	sub := MustParse(`/Security/SecInfo/*[Sector="Energy"]/Sector`)
	Contains(super, sub)
	if allocs := testing.AllocsPerRun(100, func() { Contains(super, sub) }); allocs != 0 {
		t.Errorf("Contains cache hit made %v allocations, want 0", allocs)
	}
}

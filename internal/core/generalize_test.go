package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"xixa/internal/optimizer"
	"xixa/internal/xpath"
)

func pats(ps []xpath.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func TestGeneralizePairPaperTableI(t *testing.T) {
	// §V worked example: C1 = /Security/Symbol and
	// C2 = /Security/SecInfo/*/Sector generalize to /Security//* (C4).
	got := GeneralizePair(
		xpath.MustParse("/Security/Symbol"),
		xpath.MustParse("/Security/SecInfo/*/Sector"))
	if len(got) != 1 || got[0].String() != "/Security//*" {
		t.Errorf("GeneralizePair(C1,C2) = %v, want [/Security//*]", pats(got))
	}
}

func TestGeneralizePairRule4Reoccurrence(t *testing.T) {
	// §V: "generalizing /a/b/d and /a/d/b/d will return /a//d and /a//b/d".
	got := GeneralizePair(xpath.MustParse("/a/b/d"), xpath.MustParse("/a/d/b/d"))
	want := map[string]bool{"/a//d": true, "/a//b/d": true}
	if len(got) != 2 {
		t.Fatalf("GeneralizePair = %v, want 2 results", pats(got))
	}
	for _, p := range got {
		if !want[p.String()] {
			t.Errorf("unexpected generalization %q", p.String())
		}
	}
}

func TestGeneralizePairIdentical(t *testing.T) {
	p := xpath.MustParse("/Security/Symbol")
	got := GeneralizePair(p, p)
	if len(got) != 1 || got[0].String() != "/Security/Symbol" {
		t.Errorf("self-generalization = %v", pats(got))
	}
}

func TestGeneralizePairSameLastStep(t *testing.T) {
	// Common last step retained; differing roots wildcarded.
	// The differing roots wildcard to /*/c, which Rule 0 then rewrites
	// to //c (middle wildcards become a descendant axis).
	got := GeneralizePair(xpath.MustParse("/a/c"), xpath.MustParse("/b/c"))
	if len(got) != 1 || got[0].String() != "//c" {
		t.Errorf("got %v, want [//c]", pats(got))
	}
}

func TestGeneralizePairDescendantAxis(t *testing.T) {
	// genAxis: descendant wins.
	got := GeneralizePair(xpath.MustParse("/a//b"), xpath.MustParse("/a/b"))
	if len(got) != 1 || got[0].String() != "/a//b" {
		t.Errorf("got %v, want [/a//b]", pats(got))
	}
}

func TestGeneralizePairDifferentLengths(t *testing.T) {
	got := GeneralizePair(xpath.MustParse("/a/b"), xpath.MustParse("/a/x/y/b"))
	// Skipped middle steps become a descendant hop: /a//b.
	if len(got) != 1 || got[0].String() != "/a//b" {
		t.Errorf("got %v, want [/a//b]", pats(got))
	}
}

func TestGeneralizePairAttributeTargets(t *testing.T) {
	// Attribute targets generalize together...
	// (/*/@id rewritten by Rule 0 to //@id.)
	got := GeneralizePair(xpath.MustParse("/a/@id"), xpath.MustParse("/b/@id"))
	if len(got) != 1 || got[0].String() != "//@id" {
		t.Errorf("attr pair = %v", pats(got))
	}
	// ...but element and attribute targets are incompatible.
	got = GeneralizePair(xpath.MustParse("/a/b"), xpath.MustParse("/a/@id"))
	if len(got) != 0 {
		t.Errorf("element+attribute generalized to %v, want none", pats(got))
	}
}

func TestGeneralizePairWildcardTargets(t *testing.T) {
	got := GeneralizePair(xpath.MustParse("/a/b"), xpath.MustParse("/a/c"))
	if len(got) != 1 || got[0].String() != "/a/*" {
		t.Errorf("got %v, want [/a/*]", pats(got))
	}
}

// TestPropertyGeneralizationCovers: every generalization must cover both
// inputs — the defining property of §V.
func TestPropertyGeneralizationCovers(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	randomLinear := func(r *rand.Rand) xpath.Path {
		n := 1 + r.Intn(4)
		p := xpath.Path{}
		for i := 0; i < n; i++ {
			st := xpath.Step{Axis: xpath.Child, Test: names[r.Intn(len(names))]}
			if r.Intn(4) == 0 {
				st.Axis = xpath.Descendant
			}
			if r.Intn(6) == 0 {
				st.Test = "*"
			}
			p.Steps = append(p.Steps, st)
		}
		return p
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pa := randomLinear(r)
		pb := randomLinear(r)
		for _, g := range GeneralizePair(pa, pb) {
			if !xpath.Contains(g, pa) || !xpath.Contains(g, pb) {
				t.Logf("generalization %s does not cover inputs %s, %s", g, pa, pb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGeneralizationDeterministic: same inputs, same outputs.
func TestPropertyGeneralizationDeterministic(t *testing.T) {
	a := xpath.MustParse("/a/b/d")
	b := xpath.MustParse("/a/d/b/d")
	first := pats(GeneralizePair(a, b))
	for i := 0; i < 5; i++ {
		again := pats(GeneralizePair(a, b))
		if len(again) != len(first) {
			t.Fatal("nondeterministic result count")
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatal("nondeterministic result order")
			}
		}
	}
}

func TestGeneralizePairSymmetricCoverage(t *testing.T) {
	// The result sets of (a,b) and (b,a) must cover each other: each
	// result from one direction is covered by some result from the other.
	a := xpath.MustParse("/a/b/d")
	b := xpath.MustParse("/a/d/b/d")
	ab := GeneralizePair(a, b)
	ba := GeneralizePair(b, a)
	coveredBy := func(p xpath.Path, set []xpath.Path) bool {
		for _, q := range set {
			if xpath.Contains(q, p) {
				return true
			}
		}
		return false
	}
	for _, p := range ab {
		if !coveredBy(p, ba) {
			t.Errorf("result %s of (a,b) not covered by any result of (b,a): %v", p, pats(ba))
		}
	}
	for _, p := range ba {
		if !coveredBy(p, ab) {
			t.Errorf("result %s of (b,a) not covered by any result of (a,b): %v", p, pats(ab))
		}
	}
}

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(10)
	b.Set(1)
	b.Set(65)
	if !b.Has(1) || !b.Has(65) || b.Has(2) {
		t.Error("Set/Has broken")
	}
	if b.Count() != 2 {
		t.Errorf("Count = %d", b.Count())
	}
	got := b.Elements()
	if len(got) != 2 || got[0] != 1 || got[1] != 65 {
		t.Errorf("Elements = %v", got)
	}
	o := NewBitSet(10)
	o.Set(2)
	if b.Intersects(o) {
		t.Error("disjoint sets intersect")
	}
	o.Set(65)
	if !b.Intersects(o) {
		t.Error("overlapping sets do not intersect")
	}
	b.Or(o)
	if !b.Has(2) || b.Count() != 3 {
		t.Error("Or broken")
	}
	if !b.ContainsAll(o) {
		t.Error("ContainsAll after Or broken")
	}
	if o.ContainsAll(b) {
		t.Error("smaller set claims to contain larger")
	}
	c := b.Clone()
	c.Set(99)
	if b.Has(99) {
		t.Error("Clone shares storage")
	}
}

// referenceGeneralizePair is GeneralizePair as it was before the shared
// step buffer: every recursion copies its prefix, each result is
// rewritten into a fresh path, and the results are deduplicated through
// a map and sorted with String() inside the comparator. It is the
// oracle of TestGeneralizePairMatchesReference.
func referenceGeneralizePair(a, b xpath.Path) []xpath.Path {
	pa := a.StripPreds()
	pb := b.StripPreds()
	if pa.Relative || pb.Relative || len(pa.Steps) == 0 || len(pb.Steps) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []xpath.Path
	for _, g := range refGeneralizeStep(nil, pa.Steps, pb.Steps) {
		rewritten := refRewriteMiddleWildcards(xpath.Path{Steps: g})
		key := rewritten.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, rewritten)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func refGeneralizeStep(gen []xpath.Step, pi, pj []xpath.Step) [][]xpath.Step {
	isLastI := len(pi) == 1
	isLastJ := len(pj) == 1
	if isLastI != isLastJ {
		return refAdvanceStep(gen, pi, pj)
	}
	head := xpath.Step{Axis: genAxis(pi[0].Axis, pj[0].Axis)}
	if !compatibleTests(pi[0].Test, pj[0].Test) {
		if isLastI && isLastJ {
			return nil
		}
		head.Test = "*"
	} else if pi[0].Test == pj[0].Test {
		head.Test = pi[0].Test
	} else {
		head.Test = wildcardFor(pi[0].Test)
	}
	return refAdvanceStep(refAppendStep(gen, head), pi, pj)
}

func refAdvanceStep(gen []xpath.Step, pi, pj []xpath.Step) [][]xpath.Step {
	isLastI := len(pi) == 1
	isLastJ := len(pj) == 1
	switch {
	case isLastI && isLastJ:
		return [][]xpath.Step{gen}
	case isLastI && !isLastJ:
		return refGeneralizeStep(refAppendStep(gen, xpath.Step{Axis: xpath.Child, Test: "*"}), pi, pj[len(pj)-1:])
	case !isLastI && isLastJ:
		return refGeneralizeStep(refAppendStep(gen, xpath.Step{Axis: xpath.Child, Test: "*"}), pi[len(pi)-1:], pj)
	default:
		var out [][]xpath.Step
		out = append(out, refGeneralizeStep(gen, pi[1:], pj[1:])...)
		if k := findStep(pi[1:], pj[1].Test); k > 0 {
			out = append(out, refGeneralizeStep(refAppendStep(gen, xpath.Step{Axis: xpath.Child, Test: "*"}), pi[1+k:], pj[1:])...)
		}
		if k := findStep(pj[1:], pi[1].Test); k > 0 {
			out = append(out, refGeneralizeStep(refAppendStep(gen, xpath.Step{Axis: xpath.Child, Test: "*"}), pi[1:], pj[1+k:])...)
		}
		return out
	}
}

func refRewriteMiddleWildcards(p xpath.Path) xpath.Path {
	if len(p.Steps) == 0 {
		return p
	}
	out := xpath.Path{Relative: p.Relative}
	pendingDesc := false
	for i, st := range p.Steps {
		last := i == len(p.Steps)-1
		if !last && st.Test == "*" && len(st.Preds) == 0 {
			pendingDesc = true
			continue
		}
		cs := st
		if pendingDesc {
			cs.Axis = xpath.Descendant
			pendingDesc = false
		}
		out.Steps = append(out.Steps, cs)
	}
	return out
}

func refAppendStep(gen []xpath.Step, s xpath.Step) []xpath.Step {
	out := make([]xpath.Step, len(gen)+1)
	copy(out, gen)
	out[len(gen)] = s
	return out
}

// GeneralizePair, and the reused generator generalizeAll runs, must
// return the reference's patterns in the reference's order: on every
// ordered pair of the advise workload's basic candidate patterns, and
// on hand cases for attribute targets, descendant axes, predicates and
// Rule 4's reoccurrence.
func TestGeneralizePairMatchesReference(t *testing.T) {
	db, w := adviseWorkload(t)
	a, err := New(db, optimizer.New(db, optimizer.CollectStats(db)), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var patterns []xpath.Path
	for _, c := range a.Candidates.Basic() {
		patterns = append(patterns, c.Def.Pattern)
	}
	hand := [][2]string{
		{"/a/b/d", "/a/d/b/d"}, // Rule 4: /a//b/d and /a//d
		{"/a/d/b/d", "/a/b/d"},
		{"/a/@id", "/b/@id"},     // attribute targets generalize to /*/@id
		{"/a/b", "/a/@id"},       // element vs attribute target: nothing
		{"/a/@x", "/a/b/c/@y"},   // attribute wildcard after a skipped run
		{"/a/b/@x", "/a/b"},      // attribute vs element, different lengths
		{"/a//b", "/a/b"},        // a descendant axis wins
		{"//a/b/c", "/x//a/y/c"}, // descendant axes on both sides
		{"/a//b//c", "/a//c"},
		{"/a/*/b", "/a/b/*/b"}, // wildcards in the inputs
		{`/Security[Yield>4.5]/Symbol`, `/Security/SecInfo/*[Sector="Energy"]/Sector`},
		{"/a/b/c/d/e", "/a/e/d/c/b/e"},
		{"/a/b/a/b/a", "/a/a/b/b/a"},
		{"/a", "/a"},
		{"/a", "/b/c/d/a"},
		{"a/b", "/a/b"}, // relative input: nothing
	}
	for _, h := range hand {
		patterns = append(patterns, xpath.MustParse(h[0]), xpath.MustParse(h[1]))
	}
	var pg pairGen
	check := func(pa, pb xpath.Path) {
		want := pats(referenceGeneralizePair(pa, pb))
		if got := pats(GeneralizePair(pa, pb)); !reflect.DeepEqual(got, want) {
			t.Errorf("GeneralizePair(%s, %s) = %v, reference %v", pa, pb, got, want)
		}
		if got := pats(pg.pair(pa, pb)); !reflect.DeepEqual(got, want) {
			t.Errorf("reused pair(%s, %s) = %v, reference %v", pa, pb, got, want)
		}
	}
	for _, pa := range patterns {
		for _, pb := range patterns {
			check(pa, pb)
		}
	}
	rule4 := pats(GeneralizePair(xpath.MustParse("/a/b/d"), xpath.MustParse("/a/d/b/d")))
	if want := []string{"/a//b/d", "/a//d"}; !reflect.DeepEqual(rule4, want) {
		t.Errorf("Rule 4 example = %v, want %v", rule4, want)
	}
}

// ContainsAll reports whether every element of other is in b.
func (b *BitSet) ContainsAll(other *BitSet) bool {
	for i, w := range other.words {
		var mine uint64
		if i < len(b.words) {
			mine = b.words[i]
		}
		if w&^mine != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of elements.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy.
func (b *BitSet) Clone() *BitSet {
	out := &BitSet{words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

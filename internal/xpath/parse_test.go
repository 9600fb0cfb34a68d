package xpath

import (
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"/Security/Symbol",
		"/Security/SecInfo/*/Sector",
		"//Yield",
		"/Security//*",
		"/Security/@id",
		"//@*",
		"/a/b/c/d",
		"/a//b//c",
		"/*",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := p.String(); got != in {
			t.Errorf("Parse(%q).String() = %q", in, got)
		}
		if p.Relative {
			t.Errorf("Parse(%q) marked relative", in)
		}
	}
}

func TestParseRelative(t *testing.T) {
	cases := []string{
		"Symbol",
		"SecInfo/*/Sector",
		"a//b",
		"@id",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if !p.Relative {
			t.Errorf("Parse(%q) should be relative", in)
		}
		if got := p.String(); got != in {
			t.Errorf("Parse(%q).String() = %q", in, got)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	p, err := Parse(`/Security[Yield>4.5]/Name`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	preds := p.Steps[0].Preds
	if len(preds) != 1 {
		t.Fatalf("preds = %d, want 1", len(preds))
	}
	pr := preds[0]
	if pr.Op != OpGt || pr.Lit.Kind != NumberVal || pr.Lit.Num != 4.5 {
		t.Errorf("pred = %+v, want Yield>4.5", pr)
	}
	if pr.Rel.String() != "Yield" {
		t.Errorf("pred rel = %q, want Yield", pr.Rel.String())
	}
	if got := p.String(); got != `/Security[Yield>4.5]/Name` {
		t.Errorf("String() = %q", got)
	}
}

func TestParseStringLiterals(t *testing.T) {
	for _, in := range []string{
		`/Security[Symbol="BCIIPRC"]`,
		`/Security[Symbol='BCIIPRC']`,
	} {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		pr := p.Steps[0].Preds[0]
		if pr.Op != OpEq || pr.Lit.Kind != StringVal || pr.Lit.Str != "BCIIPRC" {
			t.Errorf("pred = %+v", pr)
		}
	}
}

func TestParseAllOperators(t *testing.T) {
	ops := map[string]CmpOp{
		"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for spell, want := range ops {
		p, err := Parse("/a[b" + spell + "1]")
		if err != nil {
			t.Fatalf("Parse op %q: %v", spell, err)
		}
		if got := p.Steps[0].Preds[0].Op; got != want {
			t.Errorf("op %q parsed as %v", spell, got)
		}
	}
}

func TestParseNestedAndMultiplePredicates(t *testing.T) {
	p, err := Parse(`/Security[Yield>4.5][SecInfo/*/Sector="Energy"]/Name`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Steps[0].Preds) != 2 {
		t.Fatalf("preds = %d, want 2", len(p.Steps[0].Preds))
	}
	if got := p.Steps[0].Preds[1].Rel.String(); got != "SecInfo/*/Sector" {
		t.Errorf("second pred rel = %q", got)
	}
	// Existence predicate.
	p2 := MustParse(`/Security[SecInfo]`)
	if p2.Steps[0].Preds[0].Op != OpNone {
		t.Errorf("existence predicate parsed with op %v", p2.Steps[0].Preds[0].Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "/", "/a[", "/a[b", "/a[b=]", "/a[b=\"x]", "/a/", "a b", "/a//[b]",
		"/a[/b=1]", // absolute predicate path
		"/a[b=1]extra",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParsePattern(t *testing.T) {
	if _, err := ParsePattern("/Security/Yield"); err != nil {
		t.Errorf("linear pattern rejected: %v", err)
	}
	if _, err := ParsePattern("/Security[Yield>1]"); err == nil {
		t.Error("pattern with predicate accepted")
	}
	if _, err := ParsePattern("Symbol"); err == nil {
		t.Error("relative pattern accepted")
	}
}

func TestNegateOps(t *testing.T) {
	for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %v", op)
		}
	}
}

func TestStripPredsAndIsLinear(t *testing.T) {
	p := MustParse(`/Security[Yield>4.5]/SecInfo/*/Sector`)
	if p.IsLinear() {
		t.Error("path with predicate claimed linear")
	}
	s := p.StripPreds()
	if !s.IsLinear() {
		t.Error("StripPreds result not linear")
	}
	if s.String() != "/Security/SecInfo/*/Sector" {
		t.Errorf("StripPreds = %q", s.String())
	}
}

func TestConcat(t *testing.T) {
	pre := MustParse("/Security")
	suf := MustParse("SecInfo/*/Sector")
	got := Concat(pre, suf).String()
	if got != "/Security/SecInfo/*/Sector" {
		t.Errorf("Concat = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Concat with absolute suffix should panic")
		}
	}()
	Concat(pre, MustParse("/abs"))
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return OpNone
	}
}

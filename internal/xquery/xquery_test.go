package xquery

import (
	"strings"
	"testing"

	"xixa/internal/xpath"
)

// The paper's running examples, Q1 and Q2 (TPoX).
const (
	q1 = `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec`
	q2 = `for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`
)

func TestParseQ1(t *testing.T) {
	s, err := Parse(q1)
	if err != nil {
		t.Fatalf("Parse(Q1): %v", err)
	}
	if s.Kind != Query || s.Table != "SECURITY" || s.Var != "sec" {
		t.Errorf("header = kind %v table %q var %q", s.Kind, s.Table, s.Var)
	}
	if s.Binding.String() != "/Security" {
		t.Errorf("binding = %q", s.Binding.String())
	}
	if len(s.Where) != 1 {
		t.Fatalf("where conds = %d", len(s.Where))
	}
	c := s.Where[0]
	if c.Rel.String() != "Symbol" || c.Op != xpath.OpEq || c.Lit.Str != "BCIIPRC" {
		t.Errorf("cond = %+v", c)
	}
	if len(s.Returns) != 1 || s.Returns[0].String() != "." {
		t.Errorf("returns = %v", s.Returns)
	}
}

func TestParseQ2(t *testing.T) {
	s, err := Parse(q2)
	if err != nil {
		t.Fatalf("Parse(Q2): %v", err)
	}
	if s.Binding.String() != "/Security[Yield>4.5]" {
		t.Errorf("binding = %q", s.Binding.String())
	}
	if len(s.Where) != 1 || s.Where[0].Rel.String() != "SecInfo/*/Sector" {
		t.Errorf("where = %+v", s.Where)
	}
	if len(s.Returns) != 1 || s.Returns[0].String() != "Name" {
		t.Errorf("returns = %v", s.Returns)
	}
}

func TestNormalizedPathQ1Q2(t *testing.T) {
	// The normalization is the rewrite that exposes the paper's Table I
	// candidates: C1 from Q1 and C2, C3 from Q2.
	s1 := MustParse(q1)
	if got := s1.NormalizedPath().String(); got != `/Security[Symbol="BCIIPRC"]` {
		t.Errorf("Q1 normalized = %q", got)
	}
	s2 := MustParse(q2)
	if got := s2.NormalizedPath().String(); got != `/Security[Yield>4.5][SecInfo/*/Sector="Energy"]` {
		t.Errorf("Q2 normalized = %q", got)
	}
}

func TestParseBarePath(t *testing.T) {
	s, err := Parse(`SECURITY('SDOC')/Security[Yield>4.5]`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Kind != Query || s.Table != "SECURITY" {
		t.Errorf("kind/table = %v/%q", s.Kind, s.Table)
	}
	if s.Binding.String() != "/Security[Yield>4.5]" {
		t.Errorf("binding = %q", s.Binding)
	}
	if len(s.Where) != 0 {
		t.Errorf("bare path has where conds: %+v", s.Where)
	}
}

func TestParseMultipleConds(t *testing.T) {
	in := `for $s in SECURITY('SDOC')/Security where $s/Yield > 4.5 and $s/Symbol = "A" and $s/SecInfo return $s`
	s := MustParse(in)
	if len(s.Where) != 3 {
		t.Fatalf("conds = %d, want 3", len(s.Where))
	}
	if s.Where[0].Op != xpath.OpGt || s.Where[0].Lit.Num != 4.5 {
		t.Errorf("cond0 = %+v", s.Where[0])
	}
	if s.Where[2].Op != xpath.OpNone || s.Where[2].Rel.String() != "SecInfo" {
		t.Errorf("cond2 (existence) = %+v", s.Where[2])
	}
	norm := s.NormalizedPath().String()
	want := `/Security[Yield>4.5][Symbol="A"][SecInfo]`
	if norm != want {
		t.Errorf("normalized = %q, want %q", norm, want)
	}
}

func TestParseDescendantCond(t *testing.T) {
	in := `for $s in SECURITY('SDOC')/Security where $s//Sector = "Energy" return $s`
	s := MustParse(in)
	if len(s.Where) != 1 {
		t.Fatalf("conds = %d", len(s.Where))
	}
	rel := s.Where[0].Rel
	if !rel.Relative || rel.Steps[0].Axis != xpath.Descendant || rel.Steps[0].Test != "Sector" {
		t.Errorf("descendant cond = %+v", rel)
	}
}

func TestParseReturnsMultiplePaths(t *testing.T) {
	in := `for $s in SECURITY('SDOC')/Security return <R>{$s/Name}{$s/Yield}{$s/SecInfo/*/Sector}</R>`
	s := MustParse(in)
	if len(s.Returns) != 3 {
		t.Fatalf("returns = %v", s.Returns)
	}
	if s.Returns[2].String() != "SecInfo/*/Sector" {
		t.Errorf("third return = %q", s.Returns[2].String())
	}
}

func TestParseInsert(t *testing.T) {
	s, err := Parse(`insert into SECURITY value <Security><Symbol>NEW</Symbol><Yield>3</Yield></Security>`)
	if err != nil {
		t.Fatalf("Parse insert: %v", err)
	}
	if s.Kind != Insert || s.Table != "SECURITY" {
		t.Errorf("kind/table = %v %q", s.Kind, s.Table)
	}
	if s.Doc == nil || s.Doc.Root().Name != "Security" {
		t.Errorf("doc = %+v", s.Doc)
	}
}

func TestParseDelete(t *testing.T) {
	s, err := Parse(`delete from SECURITY where /Security[Symbol="OLD"]`)
	if err != nil {
		t.Fatalf("Parse delete: %v", err)
	}
	if s.Kind != Delete || s.Table != "SECURITY" {
		t.Errorf("kind/table = %v %q", s.Kind, s.Table)
	}
	if s.Match.String() != `/Security[Symbol="OLD"]` {
		t.Errorf("match = %q", s.Match.String())
	}
	if got := s.NormalizedPath().String(); got != `/Security[Symbol="OLD"]` {
		t.Errorf("normalized = %q", got)
	}
}

func TestParseUpdate(t *testing.T) {
	s, err := Parse(`update SECURITY set Yield = 5.25 where /Security[Symbol="A"]`)
	if err != nil {
		t.Fatalf("Parse update: %v", err)
	}
	if s.Kind != Update || s.Table != "SECURITY" {
		t.Errorf("kind/table = %v %q", s.Kind, s.Table)
	}
	if s.SetPath.String() != "Yield" || s.SetValue.Num != 5.25 {
		t.Errorf("set = %q = %v", s.SetPath.String(), s.SetValue)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $s in /Security return $s`,       // no table source
		`for $s in SECURITY('SDOC')/Security`, // no return
		`for in SECURITY('SDOC')/Security return 1`,                        // no variable
		`for $s in SECURITY('SDOC')/Security where Symbol = "A" return $s`, // cond missing $var
		`insert into SECURITY value not-xml<`,
		`delete from SECURITY`,
		`update SECURITY set x where /a`,
		`delete from SECURITY where relative/path`,
		`SELECT WHERE FROM`, // panicked slicing from FROM back to WHERE
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Query: "query", Insert: "insert", Delete: "delete", Update: "update"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestCondString(t *testing.T) {
	s := MustParse(q2)
	if got := s.Where[0].String(); !strings.Contains(got, "Sector") || !strings.Contains(got, "Energy") {
		t.Errorf("Cond.String() = %q", got)
	}
}

// TestParseRefusesOverlongPatterns: a statement from which the planner
// would derive a linear pattern longer than xpath.CheckSteps allows is
// refused at parse. Before the check the planner panicked on each of
// these. Longer paths the planner never turns into a pattern (a bare
// path, a return path, an existence test) still parse, as does a
// predicate pattern of exactly 30 steps.
func TestParseRefusesOverlongPatterns(t *testing.T) {
	a31 := strings.Repeat("/a", 31)
	for _, in := range []string{
		`for $s in SECURITY('SDOC')/Security where $s` + a31 + ` = "x" return $s`,
		`delete from SECURITY where /Security[Symbol` + a31 + ` = "x"]`,
		`update SECURITY set Symbol` + a31 + ` = "y" where /Security[Symbol="S00001"]`,
		`SELECT * FROM SECURITY WHERE XMLEXISTS('$SDOC/Security[Symbol` + a31 + `="x"]' PASSING SDOC)`,
	} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "at most 30") {
			t.Errorf("Parse(%.60q...) = %v, want the 30-step error", in, err)
		}
	}
	for _, in := range []string{
		`SECURITY('SDOC')/Security` + a31,
		`for $s in SECURITY('SDOC')/Security return $s` + a31,
		`for $s in SECURITY('SDOC')/Security where $s` + a31 + ` return $s`,
		`for $s in SECURITY('SDOC')/Security` + strings.Repeat("/a", 28) + ` where $s/b = "x" return $s`,
		`update SECURITY set a` + strings.Repeat("/a", 28) + ` = "y" where /Security[Symbol="S00001"]`,
	} {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%.60q...): %v", in, err)
		}
	}
}

// TestParseNonASCII: keywords are found in an ASCII-lowercased copy of
// the statement, whose byte offsets are those of the statement itself.
// strings.ToLower changed them (an invalid byte became a 3-byte U+FFFD,
// 'İ' grew a byte): the first two inputs panicked, the third was cut
// at the wrong byte.
func TestParseNonASCII(t *testing.T) {
	for _, in := range []string{"for \xff\xeb\xde\xd0 return", "SELECT \xff\xff\xff FROM x"} {
		if st, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", in, st)
		}
	}
	st, err := Parse(`for $s in T('C')/İİİ where $s/a = 1 return $s`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "T" || st.Binding.String() != "/İİİ" || len(st.Where) != 1 || st.Where[0].String() != "a=1" {
		t.Fatalf("parsed as table %q binding %s where %v", st.Table, st.Binding, st.Where)
	}
}

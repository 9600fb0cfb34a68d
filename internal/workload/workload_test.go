package workload

import (
	"strings"
	"testing"

	"xixa/internal/xquery"
)

const (
	wq1 = `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec`
	wq2 = `SECURITY('SDOC')/Security[Yield>4.5]`
	ins = `insert into SECURITY value <Security><Symbol>Z</Symbol></Security>`
)

func TestNewAndAdd(t *testing.T) {
	w := New(xquery.MustParse(wq1), xquery.MustParse(wq2))
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	// Re-adding the same text accumulates frequency.
	w.Add(xquery.MustParse(wq1), 9)
	if w.Len() != 2 {
		t.Errorf("Len after re-add = %d", w.Len())
	}
	if w.Items[0].Freq != 10 {
		t.Errorf("freq = %d, want 10", w.Items[0].Freq)
	}
	// Non-positive frequency defaults to 1.
	w.Add(xquery.MustParse(ins), 0)
	if w.Items[2].Freq != 1 {
		t.Errorf("zero freq stored as %d", w.Items[2].Freq)
	}
}

func TestPrefix(t *testing.T) {
	w := New(xquery.MustParse(wq1), xquery.MustParse(wq2), xquery.MustParse(ins))
	p := w.Prefix(2)
	if p.Len() != 2 || p.Items[0].Stmt.Raw != wq1 {
		t.Errorf("Prefix(2) = %d items", p.Len())
	}
	if w.Prefix(99).Len() != 3 {
		t.Error("Prefix beyond length must clamp")
	}
	// Prefix must be a copy: mutating it must not affect the original.
	p.Items[0].Freq = 777
	if w.Items[0].Freq == 777 {
		t.Error("Prefix shares backing storage with original")
	}
}

func TestQueriesAndHasUpdates(t *testing.T) {
	w := New(xquery.MustParse(wq1), xquery.MustParse(ins))
	if !w.HasUpdates() {
		t.Error("HasUpdates = false with an insert present")
	}
	q := w.Queries()
	if q.Len() != 1 || q.Items[0].Stmt.Kind != xquery.Query {
		t.Errorf("Queries() = %d items", q.Len())
	}
	if q.HasUpdates() {
		t.Error("query-only workload reports updates")
	}
}

func TestParseFile(t *testing.T) {
	text := `
# comment line

10| ` + wq1 + `
` + wq2 + `
 2| ` + ins + `
`
	w, err := ParseFile(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if w.Items[0].Freq != 10 || w.Items[1].Freq != 1 || w.Items[2].Freq != 2 {
		t.Errorf("freqs = %d %d %d", w.Items[0].Freq, w.Items[1].Freq, w.Items[2].Freq)
	}
	if w.Items[2].Stmt.Kind != xquery.Insert {
		t.Errorf("third kind = %v", w.Items[2].Stmt.Kind)
	}
}

func TestParseFileErrors(t *testing.T) {
	if _, err := ParseFile(strings.NewReader("not a statement")); err == nil {
		t.Error("bad statement accepted")
	}
}

func TestParseStatements(t *testing.T) {
	w, err := ParseStatements([]string{wq1, wq2})
	if err != nil {
		t.Fatalf("ParseStatements: %v", err)
	}
	if w.Len() != 2 {
		t.Errorf("Len = %d", w.Len())
	}
	if _, err := ParseStatements([]string{"garbage("}); err == nil {
		t.Error("bad statement accepted")
	}
}

// Queries returns only the read-only statements.
func (w *Workload) Queries() *Workload {
	out := &Workload{}
	for _, it := range w.Items {
		if it.Stmt.Kind == xquery.Query {
			out.Items = append(out.Items, it)
		}
	}
	return out
}

// HasUpdates reports whether any statement modifies data.
func (w *Workload) HasUpdates() bool {
	for _, it := range w.Items {
		if it.Stmt.Kind != xquery.Query {
			return true
		}
	}
	return false
}

package workload

import (
	"testing"

	"xixa/internal/xquery"
)

// Two spellings of the same logical statement: identical normalized
// form, different raw text.
const (
	spellA = `for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s`
	spellB = `for $s in SECURITY('SDOC')/Security where  $s/Symbol="A"  return $s`
)

func TestCaptureAccumulatesAcrossSpellings(t *testing.T) {
	c := NewCapture(8)
	c.Observe(xquery.MustParse(spellA), 1)
	c.Observe(xquery.MustParse(spellB), 1)
	c.Observe(xquery.MustParse(spellA), 3)
	if c.Len() != 1 {
		t.Fatalf("capture holds %d entries, want 1", c.Len())
	}
	w := c.Workload()
	if w.Len() != 1 || w.Items[0].Freq != 5 {
		t.Fatalf("capture workload = %d items, freq %d; want 1 item freq 5", w.Len(), w.Items[0].Freq)
	}
}

func TestCaptureDecayAndEviction(t *testing.T) {
	c := NewCapture(2)
	hot := xquery.MustParse(spellA)
	cold := xquery.MustParse(wq2)
	c.Observe(hot, 10)
	c.Observe(cold, 1)

	// Decay until the cold statement falls below the floor.
	c.Decay(0.5, 1.0)
	if c.Len() != 1 {
		t.Fatalf("after decay capture holds %d entries, want 1 (cold evicted)", c.Len())
	}
	w := c.Workload()
	if w.Items[0].Stmt != hot {
		t.Fatal("decay evicted the hot statement")
	}
	if w.Items[0].Freq != 5 {
		t.Fatalf("decayed freq = %d, want 5", w.Items[0].Freq)
	}

	// Ring full: a new arrival evicts the lowest-weight entry.
	c.Observe(cold, 1)
	third := xquery.MustParse(`delete from ORDERS where /Order[Status="cancelled"]`)
	c.Observe(third, 2)
	if c.Len() != 2 {
		t.Fatalf("capture len = %d, want bounded at 2", c.Len())
	}
	if _, found := findStmt(c, cold); found {
		t.Fatal("lowest-weight entry survived eviction")
	}
	if _, found := findStmt(c, hot); !found {
		t.Fatal("hot entry evicted")
	}
}

// TestCaptureEvictionOrder pins the ring's victim rule — lowest weight,
// the oldest first-seen on a tie — and that Export and Workload list
// the survivors in first-seen order through evictions, Decay and Merge.
func TestCaptureEvictionOrder(t *testing.T) {
	stmts := map[string]*xquery.Statement{}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		stmts[name] = xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "` + name + `" return $s`)
	}
	check := func(step string, c *Capture, names []string, weights []float64) {
		t.Helper()
		states, w := c.Export(), c.Workload()
		if len(states) != len(names) || w.Len() != len(names) {
			t.Fatalf("%s: %d exported, %d workload items, want %d", step, len(states), w.Len(), len(names))
		}
		for i, name := range names {
			if states[i].Raw != stmts[name].Raw || states[i].Weight != weights[i] {
				t.Fatalf("%s: entry %d = %q weight %v, want %s weight %v", step, i, states[i].Raw, states[i].Weight, name, weights[i])
			}
			if w.Items[i].Stmt != stmts[name] {
				t.Fatalf("%s: workload item %d is %q, want %s", step, i, w.Items[i].Stmt.Raw, name)
			}
		}
	}

	c := NewCapture(3)
	for _, name := range []string{"A", "B", "C"} {
		c.Observe(stmts[name], 1)
	}
	c.Observe(stmts["D"], 1) // all weigh 1: A is the oldest
	check("first eviction", c, []string{"B", "C", "D"}, []float64{1, 1, 1})

	c.Observe(stmts["B"], 1)
	c.Observe(stmts["E"], 1) // C and D weigh 1: C is older
	check("tie after a hit", c, []string{"B", "D", "E"}, []float64{2, 1, 1})

	c.Decay(0.5, 0.4)
	check("decay", c, []string{"B", "D", "E"}, []float64{1, 0.5, 0.5})
	c.Observe(stmts["F"], 0.5) // D and E weigh 0.5: D is older
	check("eviction after decay", c, []string{"B", "E", "F"}, []float64{1, 0.5, 0.5})

	// The incoming ring never decayed, so its weights are halved: E
	// gains 1 in place, and G evicts F, the lightest.
	other := NewCapture(4)
	other.Observe(stmts["E"], 2)
	other.Observe(stmts["G"], 4)
	c.Merge(other)
	check("merge", c, []string{"B", "E", "G"}, []float64{1, 1.5, 2})
}

func findStmt(c *Capture, stmt *xquery.Statement) (Item, bool) {
	for _, it := range c.Workload().Items {
		if it.Stmt.NormalizedKey() == stmt.NormalizedKey() {
			return it, true
		}
	}
	return Item{}, false
}

func TestCaptureMerge(t *testing.T) {
	global := NewCapture(16)
	session := NewCapture(16)
	session.Observe(xquery.MustParse(spellA), 4)
	session.Observe(xquery.MustParse(wq2), 1)
	global.Observe(xquery.MustParse(spellB), 6)
	global.Merge(session)
	if global.Len() != 2 {
		t.Fatalf("merged capture len = %d, want 2", global.Len())
	}
	it, ok := findStmt(global, xquery.MustParse(spellA))
	if !ok || it.Freq != 10 {
		t.Fatalf("merged weight = %+v, want freq 10", it)
	}
}

func TestCaptureExportImportRoundTrip(t *testing.T) {
	c := NewCapture(8)
	c.Observe(xquery.MustParse(spellA), 3)
	c.Observe(xquery.MustParse(spellB), 2) // same normalized entry
	c.Observe(xquery.MustParse(`delete from SECURITY where /Security[Symbol="B"]`), 1)
	c.Decay(0.5, 0.25)

	states := c.Export()
	if len(states) != 2 {
		t.Fatalf("exported %d entries, want 2", len(states))
	}
	if states[0].Weight != 2.5 || states[1].Weight != 0.5 {
		t.Fatalf("exported weights %v/%v, want 2.5/0.5 (decayed)", states[0].Weight, states[1].Weight)
	}

	c2 := NewCapture(8)
	if restored := c2.Import(states); restored != 2 {
		t.Fatalf("restored %d entries, want 2", restored)
	}
	got := c2.Export()
	for i := range states {
		if got[i] != states[i] {
			t.Fatalf("entry %d = %+v, want %+v (order and weights must survive)", i, got[i], states[i])
		}
	}
	// The restored capture feeds the advisor exactly like the original.
	w1, w2 := c.Workload(), c2.Workload()
	if w1.Len() != w2.Len() {
		t.Fatalf("workload lengths differ: %d vs %d", w1.Len(), w2.Len())
	}
	for i := range w1.Items {
		if w1.Items[i].Freq != w2.Items[i].Freq ||
			w1.Items[i].Stmt.NormalizedKey() != w2.Items[i].Stmt.NormalizedKey() {
			t.Fatalf("workload item %d differs after restore", i)
		}
	}
}

func TestCaptureImportSkipsUnparseable(t *testing.T) {
	c := NewCapture(4)
	restored := c.Import([]CaptureState{
		{Raw: "this is not a statement", Weight: 5},
		{Raw: spellA, Weight: 1},
	})
	if restored != 1 || c.Len() != 1 {
		t.Fatalf("restored=%d len=%d, want 1/1 (unparseable skipped)", restored, c.Len())
	}
}

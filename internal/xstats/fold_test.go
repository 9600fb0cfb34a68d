package xstats

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xixa/internal/tpox"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// eqPattern compares PatternStats field for field, NaN equal to NaN.
func eqPattern(a, b PatternStats) bool {
	return a.Entries == b.Entries && a.KeyBytes == b.KeyBytes && a.Distinct == b.Distinct &&
		eqFloat(a.Min, b.Min) && eqFloat(a.Max, b.Max) && eqHist(a.Hist, b.Hist) &&
		a.SizeBytes == b.SizeBytes && a.Levels == b.Levels
}

// stepPatterns are the patterns the every-step test derives statistics
// for: single-path, a wildcard step, a descendant step, and the two
// universal patterns, which match every path a step can change.
var stepPatterns = []xpath.Path{
	xpath.MustParse("/Security/Yield"),
	xpath.MustParse("/Security/@id"),
	xpath.MustParse("/Security/SecInfo/*/Sector"),
	xpath.MustParse("/Security//Open"),
	xpath.MustParse("//*"),
	xpath.MustParse("//@*"),
}

func patternStatsOf(ts *TableStats) []PatternStats {
	var out []PatternStats
	for _, p := range stepPatterns {
		out = append(out, ts.ForPattern(p, xpath.StringVal), ts.ForPattern(p, xpath.NumberVal))
	}
	return out
}

// heldSnapshot is a snapshot a concurrent reader keeps past later
// folds, with the pattern statistics it had when it was current.
type heldSnapshot struct {
	step  int
	stats *TableStats
	want  []PatternStats
}

// TestKeeperMatchesCollectEveryStep drives a keeper through 2,000
// single-document mutations and requires, after every one of them, a
// snapshot bit-identical to a fresh Collect and ForPattern results
// equal to the fresh collection's. One-document folds are what a
// serving statement pays for; the batch checkpoints of
// TestKeeperMatchesCollectUnderStream never exercise an in-place,
// in-range fold. A second goroutine holds older snapshots and keeps
// reading them while the keeper folds on: what they answer must not
// move.
func TestKeeperMatchesCollectEveryStep(t *testing.T) {
	db, tbl := newTable("SECURITY")
	k := NewKeeper(tbl)
	r := rand.New(rand.NewSource(17))

	held := make(chan heldSnapshot, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var keep []heldSnapshot
		for h := range held {
			if keep = append(keep, h); len(keep) > 8 {
				keep = keep[1:]
			}
			for _, old := range keep {
				for i, got := range patternStatsOf(old.stats) {
					if !eqPattern(got, old.want[i]) {
						t.Errorf("snapshot of step %d read at step %d: pattern %d = %+v, was %+v",
							old.step, h.step, i, got, old.want[i])
					}
				}
			}
		}
	}()

	type shape struct {
		yield  string // the Yield leaf's text
		bond   bool   // SecInfo/BondInformation instead of StockInformation
		price  bool   // a Price/Open subtree: four documents in five lack it
		extra  string // a leaf no document had before: the dictionary grows
		sector string
	}
	seq := 0
	build := func(s shape) *xmltree.Document {
		seq++
		b := xmltree.NewBuilder().Begin("Security").
			Attr("id", fmt.Sprint(100000+seq)). // monotone: every insert is a new max
			Leaf("Symbol", fmt.Sprintf("S%05d", seq)).
			Leaf("Yield", s.yield)
		info := "StockInformation"
		if s.bond {
			info = "BondInformation"
		}
		b.Begin("SecInfo").Begin(info).Leaf("Sector", s.sector).End().End()
		if s.price {
			b.Begin("Price").LeafFloat("Open", float64(10+seq%90)).End()
		}
		if s.extra != "" {
			b.Leaf(s.extra, "x")
		}
		return b.End().Document()
	}
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	covered := map[string]int{}
	random := func() shape {
		s := shape{
			yield:  fmt.Sprintf("%.2f", float64(r.Intn(1000))/100), // inside [0, 9.99] once both ends exist
			bond:   r.Intn(4) == 0,
			price:  r.Intn(5) == 0,
			sector: sectors[r.Intn(len(sectors))],
		}
		switch r.Intn(25) {
		case 0:
			s.yield = fmt.Sprint(1000 + seq) // a new max, and its sole holder
			covered["new max"]++
		case 1:
			s.yield = fmt.Sprint(-1000 - seq) // a new min
			covered["new min"]++
		case 2:
			s.yield = "NaN"
			covered["NaN"]++
		case 3:
			s.yield = "n/a" // not numeric at all
		case 4:
			s.extra = fmt.Sprintf("Extra%d", seq)
			covered["dictionary growth"]++
		}
		return s
	}

	var ids []int64
	paths := map[int]bool{}
	for step := 0; step < 2000; step++ {
		op := r.Intn(10)
		switch {
		case len(ids) < 12 || (op < 4 && len(ids) < 60):
			ids = append(ids, insertDoc(t, db, tbl, build(random())))
		case op < 7:
			i := r.Intn(len(ids))
			replaceDoc(t, db, tbl, ids[i], build(random()))
		default:
			i := r.Intn(len(ids))
			deleteDoc(t, db, tbl, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		}

		label := fmt.Sprintf("step %d", step)
		got, fresh := k.Stats(), Collect(tbl)
		requireStatsEqual(t, label, got, fresh)
		want := patternStatsOf(fresh)
		for i, g := range patternStatsOf(got) {
			if !eqPattern(g, want[i]) {
				t.Fatalf("%s: pattern %d = %+v, fresh collection has %+v", label, i, g, want[i])
			}
		}
		paths[len(got.List)] = true
		select {
		case held <- heldSnapshot{step: step, stats: got, want: want}:
		default: // the reader is busy; it holds what it has
		}
	}
	close(held)
	wg.Wait()

	// The stream must have been the stream this test is about.
	for _, c := range []string{"new max", "new min", "NaN", "dictionary growth"} {
		if covered[c] < 5 {
			t.Errorf("stream produced %q only %d times", c, covered[c])
		}
	}
	if len(paths) < 3 {
		t.Errorf("the number of paths took %d values: paths did not appear and vanish", len(paths))
	}
	folds, rebuilds := k.FoldCounts()
	if folds != 2000 {
		t.Errorf("%d folds, want one per step", folds)
	}
	// Eight paths a document; most folds move no range.
	if rebuilds == 0 || rebuilds > 2*folds {
		t.Errorf("%d path re-derivations over %d folds: want some (ranges moved) but far fewer than paths touched", rebuilds, folds)
	}
}

// TestFoldRederivesOnlyMovedRanges is the deterministic form of "a
// one-document fold is proportional to the document": on TPoX SECURITY
// (23 paths, 1,000 documents) a replace whose values stay inside every
// path's range re-derives nothing, and one that moves ranges re-derives
// exactly the paths whose range moved.
func TestFoldRederivesOnlyMovedRanges(t *testing.T) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(tpox.TableSecurity)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKeeper(tbl)
	before := k.Stats()
	yield, pe := before.Paths["/Security/Yield"], before.Paths["/Security/PE"]

	// A document holding neither end of Yield or PE: rewriting those two
	// leaves cannot remove the last holder of a min or max.
	var id int64 = -1
	leaf := func(d *xmltree.Document, name string) *xmltree.Node {
		for i := range d.Nodes {
			if d.Nodes[i].Name == name {
				return &d.Nodes[i+1]
			}
		}
		t.Fatalf("no %s leaf", name)
		return nil
	}
	tbl.Scan(func(d *xmltree.Document) bool {
		y, _ := xmltree.ParseNumeric(leaf(d, "Yield").Value)
		p, _ := xmltree.ParseNumeric(leaf(d, "PE").Value)
		if y > yield.Min && y < yield.Max && p > pe.Min && p < pe.Max {
			id = d.DocID
			return false
		}
		return true
	})
	if id < 0 {
		t.Fatal("no document strictly inside both ranges")
	}
	replace := func(yieldText, peText string) (folds, rebuilds int64) {
		t.Helper()
		src, _ := tbl.Get(id)
		d := &xmltree.Document{Nodes: append([]xmltree.Node(nil), src.Nodes...), Dict: src.Dict,
			PathIDs: append([]xmltree.PathID(nil), src.PathIDs...)}
		leaf(d, "Yield").Value, leaf(d, "PE").Value = yieldText, peText
		replaceDoc(t, db, tbl, id, d)
		f0, r0 := k.FoldCounts()
		got := k.Stats()
		requireStatsEqual(t, "replace "+yieldText+"/"+peText, got, Collect(tbl))
		f1, r1 := k.FoldCounts()
		return f1 - f0, r1 - r0
	}

	mid := fmt.Sprintf("%.2f", (yield.Min+yield.Max)/2)
	midPE := fmt.Sprintf("%.2f", (pe.Min+pe.Max)/2)
	if folds, rebuilds := replace(mid, midPE); folds != 1 || rebuilds != 0 {
		t.Errorf("in-range replace: %d folds, %d re-derivations, want 1 and 0", folds, rebuilds)
	}
	if folds, rebuilds := replace("1000", midPE); folds != 1 || rebuilds != 1 {
		t.Errorf("replace with a new Yield max: %d folds, %d re-derivations, want 1 and 1", folds, rebuilds)
	}
	// Back inside: the sole holder of the Yield max goes (one path), and
	// PE gets a new min (a second).
	if folds, rebuilds := replace(mid, "-5"); folds != 1 || rebuilds != 2 {
		t.Errorf("replace removing the Yield max and adding a PE min: %d folds, %d re-derivations, want 1 and 2", folds, rebuilds)
	}
	if st := k.Stats(); st.Paths["/Security/Symbol"] != before.Paths["/Security/Symbol"] {
		t.Error("a path whose values netted to zero got a new PathStat")
	}
}

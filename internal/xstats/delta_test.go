package xstats

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"xixa/internal/xmltree"
)

// eqFloat compares floats treating NaN as equal to NaN (bit-compat
// tests must not fail on NaN != NaN).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqHist(a, b *Histogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	return eqFloat(a.Min, b.Min) && eqFloat(a.Max, b.Max) &&
		a.Total == b.Total && reflect.DeepEqual(a.Buckets, b.Buckets)
}

// requireStatsEqual asserts two TableStats carry identical synopses:
// same paths in the same order with identical counters, bounds, and
// histograms.
func requireStatsEqual(t *testing.T, label string, got, want *TableStats) {
	t.Helper()
	if got.DocCount != want.DocCount || got.TotalNodes != want.TotalNodes {
		t.Fatalf("%s: doc/node counts = (%d,%d), want (%d,%d)",
			label, got.DocCount, got.TotalNodes, want.DocCount, want.TotalNodes)
	}
	if got.Version != want.Version {
		t.Fatalf("%s: version = %d, want %d", label, got.Version, want.Version)
	}
	if len(got.List) != len(want.List) {
		gotPaths := make([]string, len(got.List))
		for i, ps := range got.List {
			gotPaths[i] = ps.Path()
		}
		t.Fatalf("%s: %d paths, want %d (got %v)", label, len(got.List), len(want.List), gotPaths)
	}
	for i, g := range got.List {
		w := want.List[i]
		if g.Path() != w.Path() || g.PathID != w.PathID {
			t.Fatalf("%s: List[%d] = %q (id %d), want %q (id %d)",
				label, i, g.Path(), g.PathID, w.Path(), w.PathID)
		}
		if g.Count != w.Count || g.DistinctStrings != w.DistinctStrings ||
			g.ValueBytes != w.ValueBytes || g.NumericCount != w.NumericCount ||
			g.DistinctNums != w.DistinctNums {
			t.Errorf("%s %s: counters (%d,%d,%d,%d,%d), want (%d,%d,%d,%d,%d)",
				label, g.Path(),
				g.Count, g.DistinctStrings, g.ValueBytes, g.NumericCount, g.DistinctNums,
				w.Count, w.DistinctStrings, w.ValueBytes, w.NumericCount, w.DistinctNums)
		}
		if !eqFloat(g.Min, w.Min) || !eqFloat(g.Max, w.Max) {
			t.Errorf("%s %s: bounds (%v,%v), want (%v,%v)", label, g.Path(), g.Min, g.Max, w.Min, w.Max)
		}
		if !eqHist(g.Hist, w.Hist) {
			t.Errorf("%s %s: histogram %+v, want %+v", label, g.Path(), g.Hist, w.Hist)
		}
		if ps, ok := got.Paths[g.Path()]; !ok || ps != g {
			t.Errorf("%s %s: Paths map does not point at List entry", label, g.Path())
		}
		if got.ByPathID(g.PathID) != g {
			t.Errorf("%s %s: ByPathID does not point at List entry", label, g.Path())
		}
	}
}

// TestKeeperMatchesCollectUnderStream is the incremental-maintenance
// golden test: a stream of inserts, deletes, and copy-on-write updates
// maintained through a Keeper must yield, at every checkpoint, a
// TableStats bit-identical to a fresh full Collect of the table.
func TestKeeperMatchesCollectUnderStream(t *testing.T) {
	db, tbl := newTable("SECURITY")
	k := NewKeeper(tbl)

	var ids []int64
	security := func(i int, yield float64) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Security").
			Attr("id", fmt.Sprintf("%d", 100000+i)).
			Leaf("Symbol", fmt.Sprintf("S%04d", i)).
			LeafFloat("Yield", yield).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", []string{"Energy", "Tech", "Finance"}[i%3]).
			End().End().
			End().Document()
	}
	insert := func(i int) {
		ids = append(ids, insertDoc(t, db, tbl, security(i, float64(i%13)+float64(i%7)/10)))
	}
	checkpoint := func(step string) {
		t.Helper()
		requireStatsEqual(t, step, k.Stats(), Collect(tbl))
	}

	for i := 0; i < 60; i++ {
		insert(i)
	}
	checkpoint("after inserts")

	// Delete every third document (including the current min/max Yield
	// holders eventually), forcing bound and histogram recomputation.
	for i := 0; i < len(ids); i += 3 {
		deleteDoc(t, db, tbl, ids[i])
	}
	checkpoint("after deletes")

	// Copy-on-write updates: rewrite Yield leaves.
	updated := 0
	for i := 1; i < len(ids); i += 3 {
		replaceDoc(t, db, tbl, ids[i], security(i, 99.5+float64(i)))
		updated++
	}
	if updated == 0 {
		t.Fatal("no documents updated")
	}
	checkpoint("after updates")

	// Interleaved churn: insert new shapes (new paths), delete more.
	for i := 100; i < 120; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("S%04d", i)).
			Begin("Price").LeafFloat("Open", float64(i)).LeafFloat("Close", float64(i)+0.5).End().
			End().Document()
		ids = append(ids, insertDoc(t, db, tbl, d))
	}
	for i := 2; i < 60; i += 3 {
		deleteDoc(t, db, tbl, ids[i])
	}
	checkpoint("after churn")
}

// TestDeltaCancellation asserts that deleting everything ever inserted
// returns the statistics to their empty state: no paths survive, even
// transiently-touched ones.
func TestDeltaCancellation(t *testing.T) {
	db, tbl := newTable("T")
	k := NewKeeper(tbl)
	var ids []int64
	for i := 0; i < 10; i++ {
		d := xmltree.NewBuilder().
			Begin("Doc").Leaf("V", fmt.Sprintf("%d", i)).End().Document()
		ids = append(ids, insertDoc(t, db, tbl, d))
	}
	for _, id := range ids {
		deleteDoc(t, db, tbl, id)
	}
	st := k.Stats()
	requireStatsEqual(t, "emptied", st, Collect(tbl))
	if len(st.List) != 0 || st.DocCount != 0 || st.TotalNodes != 0 {
		t.Fatalf("emptied table still has stats: %d paths, %d docs, %d nodes",
			len(st.List), st.DocCount, st.TotalNodes)
	}
}

// TestDeltaEdgeValues covers the value extraction corners through the
// incremental path: NaN and infinite numerics, empty elements,
// multi-text concatenation, and attribute values.
func TestDeltaEdgeValues(t *testing.T) {
	db, tbl := newTable("T")
	k := NewKeeper(tbl)
	mk := func(val string) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Doc").Attr("a", " padded ").
			Leaf("V", val).
			Begin("Empty").End().
			End().Document()
	}
	var ids []int64
	for _, v := range []string{"NaN", "NaN", "Inf", "-Inf", "1.5", "", "  2.5  ", "text"} {
		ids = append(ids, insertDoc(t, db, tbl, mk(v)))
	}
	// Multi-text concatenation: element with two text children around a
	// child element.
	b := xmltree.NewBuilder()
	b.Begin("Doc").Begin("V").Text("12").Begin("Sep").End().Text("34").End().End()
	ids = append(ids, insertDoc(t, db, tbl, b.Document()))

	requireStatsEqual(t, "edge inserts", k.Stats(), Collect(tbl))

	// Remove one NaN and the concat doc; incremental must track both.
	deleteDoc(t, db, tbl, ids[0])
	deleteDoc(t, db, tbl, ids[len(ids)-1])
	requireStatsEqual(t, "edge deletes", k.Stats(), Collect(tbl))
}

// TestTableStatsMerge asserts the shard combinator: collecting two
// disjoint document subsets separately and merging yields the same
// statistics as collecting the whole table.
func TestTableStatsMerge(t *testing.T) {
	tbl := buildTable(t, 40)
	want := Collect(tbl)

	dict := tbl.PathDict()
	da, db := NewDelta(dict), NewDelta(dict)
	i := 0
	tbl.Scan(func(doc *xmltree.Document) bool {
		if i%2 == 0 {
			da.CollectDoc(doc)
		} else {
			db.CollectDoc(doc)
		}
		i++
		return true
	})
	a := FromDelta(tbl.Name, 0, da)
	b := FromDelta(tbl.Name, 0, db)
	merged, err := a.Merge(b, want.Version)
	if err != nil {
		t.Fatal(err)
	}
	requireStatsEqual(t, "merged shards", merged, want)
}

// TestApplyDeltaRequiresMergeableStore asserts reference-collected
// statistics refuse incremental maintenance instead of silently
// diverging.
func TestApplyDeltaRequiresMergeableStore(t *testing.T) {
	tbl := buildTable(t, 5)
	ref := CollectReference(tbl)
	d := NewDelta(tbl.PathDict())
	if _, err := ref.ApplyDelta(d, 1); err == nil {
		t.Fatal("ApplyDelta on reference-collected stats succeeded")
	}
	live := Collect(tbl)
	if _, err := live.ApplyDelta(live.acc, 1); err == nil {
		t.Fatal("ApplyDelta of a store onto itself succeeded")
	}
}

package xstats

import (
	"fmt"
	"math/rand"
	"testing"

	"xixa/internal/xmltree"
)

// shardDoc builds document i of the property-test corpus. It is a pure
// function of i, so every shard table materializes byte-identical
// copies without sharing (and thus re-interning) one Document across
// dictionaries. The corpus mixes attributes, categorical duplicates,
// numeric duplicates, empty values, and structural variation so the
// merge has to reconcile every accumulator field, not just counts.
func shardDoc(i int) *xmltree.Document {
	sectors := []string{"Energy", "Tech", "Finance", "Retail", ""}
	b := xmltree.NewBuilder().
		Begin("Security").
		Attr("id", fmt.Sprintf("S%04d", i)).
		Leaf("Symbol", fmt.Sprintf("SYM%05d", i%17)). // duplicates across docs
		LeafFloat("Yield", float64(i%7)/2).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", sectors[i%len(sectors)]).
		End().End()
	if i%3 == 0 {
		b.Leaf("PE", fmt.Sprintf("%d.5", i%11))
	}
	if i%5 == 0 {
		b.Begin("Notes").Text("mixed ").Begin("Em").Text("text").End().Text(" doc").End()
	}
	return b.End().Document()
}

// requireSynopsisEqual asserts two TableStats describe the same
// synopsis — identical paths (by rooted label path), counters, bounds,
// and histograms. Unlike requireStatsEqual it ignores PathID and
// Version: shard tables intern paths in their own arrival order, so a
// merged synopsis legitimately numbers paths differently from an
// unsharded collection while meaning exactly the same thing.
func requireSynopsisEqual(t *testing.T, label string, got, want *TableStats) {
	t.Helper()
	if got.DocCount != want.DocCount || got.TotalNodes != want.TotalNodes {
		t.Fatalf("%s: doc/node counts = (%d,%d), want (%d,%d)",
			label, got.DocCount, got.TotalNodes, want.DocCount, want.TotalNodes)
	}
	if len(got.List) != len(want.List) {
		t.Fatalf("%s: %d paths, want %d", label, len(got.List), len(want.List))
	}
	for i, g := range got.List {
		w := want.List[i]
		if g.Path() != w.Path() {
			t.Fatalf("%s: List[%d] = %q, want %q", label, i, g.Path(), w.Path())
		}
		if g.Count != w.Count || g.DistinctStrings != w.DistinctStrings ||
			g.ValueBytes != w.ValueBytes || g.NumericCount != w.NumericCount ||
			g.DistinctNums != w.DistinctNums {
			t.Fatalf("%s %s: counters (%d,%d,%d,%d,%d), want (%d,%d,%d,%d,%d)",
				label, g.Path(),
				g.Count, g.DistinctStrings, g.ValueBytes, g.NumericCount, g.DistinctNums,
				w.Count, w.DistinctStrings, w.ValueBytes, w.NumericCount, w.DistinctNums)
		}
		if !eqFloat(g.Min, w.Min) || !eqFloat(g.Max, w.Max) {
			t.Fatalf("%s %s: bounds (%v,%v), want (%v,%v)", label, g.Path(), g.Min, g.Max, w.Min, w.Max)
		}
		if !eqHist(g.Hist, w.Hist) {
			t.Fatalf("%s %s: histogram %+v, want %+v", label, g.Path(), g.Hist, w.Hist)
		}
	}
}

// mergeParts folds shard synopses into a fresh global base (its own
// dictionary, as the sharded stats plane does) in the given order.
func mergeParts(t *testing.T, parts []*TableStats, order []int) *TableStats {
	t.Helper()
	base := FromDelta("SECURITY", 0, NewDelta(xmltree.NewPathDict()))
	for _, k := range order {
		var err error
		base, err = base.Merge(parts[k], 0)
		if err != nil {
			t.Fatalf("merge part %d: %v", k, err)
		}
	}
	return base
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestMergeKWaySplitProperty is sharding's foundation as a property
// test: split a table's documents across K shard tables — each with
// its own path dictionary, as real shards have — collect each shard
// separately, and merge. However the split is drawn and however the
// merge is ordered or grouped, the result must carry the synopsis of
// an unsharded Collect of the whole table:
//
//   - commutative: merging in any permutation of shard order matches
//   - associative: merging grouped sub-merges matches
//   - lossless: both match the unsharded collection bit-for-bit
//     (modulo dictionary numbering, which carries no information)
func TestMergeKWaySplitProperty(t *testing.T) {
	const docs = 60
	wholeDB, whole := newTable("SECURITY")
	for i := 0; i < docs; i++ {
		insertDoc(t, wholeDB, whole, shardDoc(i))
	}
	want := Collect(whole)

	rng := rand.New(rand.NewSource(1914))
	for trial := 0; trial < 8; trial++ {
		k := 2 + rng.Intn(4) // 2..5 shards
		assign := make([]int, docs)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}

		parts := make([]*TableStats, k)
		for s := 0; s < k; s++ {
			db, tbl := newTable("SECURITY")
			for i := 0; i < docs; i++ {
				if assign[i] == s {
					insertDoc(t, db, tbl, shardDoc(i))
				}
			}
			parts[s] = Collect(tbl)
		}

		label := fmt.Sprintf("trial %d (k=%d)", trial, k)
		inOrder := mergeParts(t, parts, identity(k))
		requireSynopsisEqual(t, label+" in-order", inOrder, want)

		// Commutativity: a random permutation of the merge order.
		requireSynopsisEqual(t, label+" permuted", mergeParts(t, parts, rng.Perm(k)), want)

		// Associativity: merge two disjoint groups separately, then
		// merge the group results (each group base has its own
		// dictionary, exercising the cross-dict rebase twice).
		cut := 1 + rng.Intn(k-1)
		left := mergeParts(t, parts, identity(k)[:cut])
		right := mergeParts(t, parts, identity(k)[cut:])
		grouped, err := left.Merge(right, 0)
		if err != nil {
			t.Fatalf("%s grouped merge: %v", label, err)
		}
		requireSynopsisEqual(t, label+" grouped", grouped, want)

		// The parts must remain readable and intact after every merge
		// read their stores: re-merging in order must still match.
		requireSynopsisEqual(t, label+" re-merged", mergeParts(t, parts, identity(k)), want)
	}
}

package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(2); err == nil {
		t.Error("order 2 accepted")
	}
	tr, err := NewTree(0)
	if err != nil || tr == nil {
		t.Fatalf("NewTree(0): %v", err)
	}
	if tr.Len() != 0 || tr.Levels() != 1 || tr.LeafPages() != 1 {
		t.Errorf("empty tree stats: len=%d levels=%d pages=%d", tr.Len(), tr.Levels(), tr.LeafPages())
	}
}

func TestInsertAndGet(t *testing.T) {
	tr := MustNewTree(4)
	for i := 0; i < 100; i++ {
		if !tr.Insert(key(i), uint64(i)) {
			t.Fatalf("Insert(%d) reported duplicate", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 100; i++ {
		vals := tr.Get(key(i))
		if len(vals) != 1 || vals[0] != uint64(i) {
			t.Errorf("Get(%d) = %v", i, vals)
		}
	}
	if got := tr.Get([]byte("missing")); len(got) != 0 {
		t.Errorf("Get(missing) = %v", got)
	}
}

func TestInsertDuplicatePairs(t *testing.T) {
	tr := MustNewTree(4)
	if !tr.Insert([]byte("a"), 1) {
		t.Fatal("first insert failed")
	}
	if tr.Insert([]byte("a"), 1) {
		t.Error("duplicate (key,val) accepted")
	}
	if !tr.Insert([]byte("a"), 2) {
		t.Error("same key different val rejected")
	}
	if got := tr.Get([]byte("a")); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Get(a) = %v, want [1 2]", got)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := MustNewTree(4)
	for i := 0; i < 200; i++ {
		tr.Insert(key(i), uint64(i))
	}
	for i := 0; i < 200; i += 2 {
		if !tr.Delete(key(i), uint64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Delete(key(0), 0) {
		t.Error("second delete of same entry succeeded")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 200; i++ {
		got := tr.Get(key(i))
		wantLen := i % 2
		if len(got) != wantLen {
			t.Errorf("Get(%d) = %v, want %d entries", i, got, wantLen)
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := MustNewTree(3)
	for i := 0; i < 50; i++ {
		tr.Insert(key(i), uint64(i))
	}
	for i := 0; i < 50; i++ {
		if !tr.Delete(key(i), uint64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	// Tree must remain usable.
	tr.Insert([]byte("x"), 9)
	if got := tr.Get([]byte("x")); len(got) != 1 || got[0] != 9 {
		t.Errorf("Get(x) after reuse = %v", got)
	}
}

func TestAscendRange(t *testing.T) {
	tr := MustNewTree(4)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), uint64(i))
	}
	collect := func(lo, hi []byte, loIncl, hiIncl bool) []uint64 {
		var out []uint64
		tr.AscendRange(lo, hi, loIncl, hiIncl, func(_ []byte, v uint64) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	if got := collect(key(10), key(19), true, true); len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("[10,19] = %v", got)
	}
	if got := collect(key(10), key(19), false, false); len(got) != 8 || got[0] != 11 || got[7] != 18 {
		t.Errorf("(10,19) = %v", got)
	}
	if got := collect(nil, key(4), true, true); len(got) != 5 {
		t.Errorf("(-inf,4] = %v", got)
	}
	if got := collect(key(95), nil, true, true); len(got) != 5 {
		t.Errorf("[95,inf) = %v", got)
	}
	if got := collect(nil, nil, true, true); len(got) != 100 {
		t.Errorf("full scan = %d entries", len(got))
	}
	if got := collect(key(200), nil, true, true); len(got) != 0 {
		t.Errorf("beyond max = %v", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := MustNewTree(4)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), uint64(i))
	}
	count := 0
	visited := tr.Ascend(func(_ []byte, _ uint64) bool {
		count++
		return count < 7
	})
	if count != 7 || visited != 7 {
		t.Errorf("early stop visited %d/%d, want 7", count, visited)
	}
}

func TestOrderedIteration(t *testing.T) {
	tr := MustNewTree(5)
	r := rand.New(rand.NewSource(42))
	perm := r.Perm(500)
	for _, i := range perm {
		tr.Insert(key(i), uint64(i))
	}
	var prev []byte
	tr.Ascend(func(k []byte, _ uint64) bool {
		if prev != nil && bytes.Compare(prev, k) > 0 {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		return true
	})
}

func TestStatsGrowth(t *testing.T) {
	tr := MustNewTree(4)
	if tr.Levels() != 1 {
		t.Errorf("empty levels = %d", tr.Levels())
	}
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), uint64(i))
	}
	if tr.Levels() < 3 {
		t.Errorf("1000 entries at order 4: levels = %d, want >= 3", tr.Levels())
	}
	if tr.LeafPages() < 1000/4 {
		t.Errorf("LeafPages = %d, too few", tr.LeafPages())
	}
	if tr.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	// Size must shrink after deletions.
	before := tr.SizeBytes()
	for i := 0; i < 500; i++ {
		tr.Delete(key(i), uint64(i))
	}
	if tr.SizeBytes() >= before {
		t.Errorf("SizeBytes did not shrink: %d -> %d", before, tr.SizeBytes())
	}
}

func TestEstimateSizeMatchesRealScale(t *testing.T) {
	// The virtual-size estimate must be within 2x of a real tree's
	// reported size for identical contents (same formula, same inputs).
	tr := MustNewTree(0)
	var keyBytes int64
	n := 20000
	for i := 0; i < n; i++ {
		k := key(i)
		keyBytes += int64(len(k))
		tr.Insert(k, uint64(i))
	}
	real := tr.SizeBytes()
	est := EstimateSizeBytes(n, keyBytes, 0)
	if real <= 0 || est <= 0 {
		t.Fatal("sizes must be positive")
	}
	ratio := float64(real) / float64(est)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("estimate off by more than 2x: real=%d est=%d", real, est)
	}
	if lv := EstimateLevels(n, 0); lv < 2 || lv > tr.Levels()+1 {
		t.Errorf("EstimateLevels = %d, real = %d", lv, tr.Levels())
	}
}

// refEntry mirrors tree contents for the model-based property test.
type refEntry struct {
	key string
	val uint64
}

// TestPropertyModelConformance drives random insert/delete/range
// operations against a reference implementation.
func TestPropertyModelConformance(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustNewTree(3 + r.Intn(6))
		var ref []refEntry
		keys := []string{"a", "b", "bb", "c", "ca", "d", "e", "f"}
		for op := 0; op < 300; op++ {
			k := keys[r.Intn(len(keys))]
			v := uint64(r.Intn(5))
			switch r.Intn(3) {
			case 0, 1: // insert
				dup := false
				for _, e := range ref {
					if e.key == k && e.val == v {
						dup = true
						break
					}
				}
				got := tr.Insert([]byte(k), v)
				if got == dup {
					t.Logf("seed %d op %d: Insert(%q,%d) = %v, dup = %v", seed, op, k, v, got, dup)
					return false
				}
				if !dup {
					ref = append(ref, refEntry{k, v})
				}
			case 2: // delete
				present := false
				for i, e := range ref {
					if e.key == k && e.val == v {
						present = true
						ref = append(ref[:i], ref[i+1:]...)
						break
					}
				}
				if got := tr.Delete([]byte(k), v); got != present {
					t.Logf("seed %d op %d: Delete(%q,%d) = %v, want %v", seed, op, k, v, got, present)
					return false
				}
			}
			if tr.Len() != len(ref) {
				t.Logf("seed %d op %d: Len %d != ref %d", seed, op, tr.Len(), len(ref))
				return false
			}
		}
		// Final full-order comparison.
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].key != ref[j].key {
				return ref[i].key < ref[j].key
			}
			return ref[i].val < ref[j].val
		})
		var got []refEntry
		tr.Ascend(func(k []byte, v uint64) bool {
			got = append(got, refEntry{string(k), v})
			return true
		})
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		// Random range queries.
		for q := 0; q < 20; q++ {
			lo := keys[r.Intn(len(keys))]
			hi := keys[r.Intn(len(keys))]
			if lo > hi {
				lo, hi = hi, lo
			}
			want := 0
			for _, e := range ref {
				if e.key >= lo && e.key <= hi {
					want++
				}
			}
			gotN := tr.AscendRange([]byte(lo), []byte(hi), true, true, func(_ []byte, _ uint64) bool { return true })
			if gotN != want {
				t.Logf("seed %d: range [%q,%q] = %d, want %d", seed, lo, hi, gotN, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKeyAliasing(t *testing.T) {
	// The tree must copy keys: mutating the caller's buffer afterwards
	// must not corrupt the tree.
	tr := MustNewTree(4)
	buf := []byte("mutable")
	tr.Insert(buf, 1)
	buf[0] = 'X'
	if got := tr.Get([]byte("mutable")); len(got) != 1 {
		t.Error("tree affected by caller mutation of key buffer")
	}
}

// Ascend visits all entries in order.
func (t *Tree) Ascend(visit func(key []byte, val uint64) bool) int {
	return t.AscendRange(nil, nil, true, true, visit)
}

// LeafPages returns the number of leaf nodes.
func (t *Tree) LeafPages() int {
	pages := 0
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		pages++
	}
	return pages
}

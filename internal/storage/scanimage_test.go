package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"xixa/internal/xmltree"
)

// imageNow returns the table's scan image, nil once a mutation or a
// sweep has dropped it.
func (t *Table) imageNow() []*xmltree.Document {
	if img := t.image.Load(); img != nil {
		return *img
	}
	return nil
}

func viewDocs(v *TableView) []*xmltree.Document {
	var out []*xmltree.Document
	v.Scan(func(d *xmltree.Document) bool {
		out = append(out, d)
		return true
	})
	return out
}

// chainDocs resolves the view's documents one version chain at a time,
// in ID order: the reference a scan is checked against. (No test here
// re-inserts an ID, so ID order is insertion order.)
func chainDocs(v *TableView) []*xmltree.Document {
	var out []*xmltree.Document
	for id := int64(0); id < v.t.NextID(); id++ {
		if d, ok := v.Get(id); ok {
			out = append(out, d)
		}
	}
	return out
}

// sameSlice reports whether a and b are one slice (not merely equal).
func sameSlice(a, b []*xmltree.Document) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestScanImageFollowsCommits pins the scan image's life: a newer
// snapshot of an unchanged table reuses it; an insert, a replace, a
// delete and a sweep each drop it; a snapshot pinned before a commit
// still scans its own versions; and every scan equals the per-chain
// resolution of its view.
func TestScanImageFollowsCommits(t *testing.T) {
	db, tbl := newTable("T")
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, insert(t, db, tbl, doc(fmt.Sprintf("S%02d", i), 1)))
	}
	scan := func(what string) (*Snapshot, []*xmltree.Document) {
		t.Helper()
		snap := db.PinSnapshot()
		v, err := snap.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		got, want := viewDocs(v), chainDocs(v)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: scan at stamp %d saw %d documents, the chains hold %d", what, snap.LSN(), len(got), len(want))
		}
		return snap, got
	}

	first, firstDocs := scan("first scan")
	defer first.Release()
	img := tbl.imageNow()
	if img == nil || !slices.Equal(img, firstDocs) {
		t.Fatal("a scan at the newest stamp did not build the scan image")
	}
	again, _ := scan("second snapshot")
	again.Release()
	if !sameSlice(tbl.imageNow(), img) {
		t.Error("a newer snapshot of an unchanged table rebuilt the image")
	}

	steps := []struct {
		name  string
		apply func()
		want  int
	}{
		{"insert", func() { ids = append(ids, insert(t, db, tbl, doc("NEW", 2))) }, 11},
		{"replace", func() { replace(t, db, tbl, ids[3], doc("S03b", 3)) }, 11},
		{"delete", func() { del(t, db, tbl, ids[5]) }, 10},
	}
	for _, st := range steps {
		st.apply()
		if tbl.imageNow() != nil {
			t.Errorf("%s: the scan image survived the commit", st.name)
		}
		if got := viewDocs(mustView(t, first)); !slices.Equal(got, firstDocs) {
			t.Errorf("%s: the snapshot pinned before it scans %d documents, want its own %d", st.name, len(got), len(firstDocs))
		}
		snap, docs := scan(st.name)
		snap.Release()
		if now := tbl.imageNow(); len(docs) != st.want || now == nil || !slices.Equal(now, docs) {
			t.Errorf("%s: a new snapshot scanned %d documents (want %d); image %d documents", st.name, len(docs), st.want, len(now))
		}
	}

	tbl.mu.Lock()
	tbl.sweepLocked(db.mv.horizon())
	tbl.mu.Unlock()
	if tbl.imageNow() != nil {
		t.Error("sweep: the scan image survived")
	}
	snap, docs := scan("after the sweep")
	snap.Release()
	if len(docs) != 10 {
		t.Errorf("after the sweep a new snapshot scanned %d documents, want 10", len(docs))
	}
}

func mustView(t *testing.T, s *Snapshot) *TableView {
	t.Helper()
	v, err := s.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestScanImageMatchesChainsUnderCommits runs scans of fresh and of one
// long-pinned snapshot against a writer's inserts, replaces and deletes
// (with sweeps among them). Every scan must equal its view's per-chain
// resolution; under -race it also checks that readers building and
// sharing the image race with neither each other nor the writer.
func TestScanImageMatchesChainsUnderCommits(t *testing.T) {
	db, tbl := newTable("T")
	var live []int64
	for i := 0; i < 50; i++ {
		live = append(live, insert(t, db, tbl, doc(fmt.Sprintf("S%03d", i), float64(i))))
	}
	old := db.PinSnapshot()
	defer old.Release()
	oldDocs := viewDocs(mustView(t, old))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans atomic.Int64
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.PinSnapshot()
				if r == 0 && n%4 == 0 {
					snap.Release()
					snap = old // keep the old view in the mix
				}
				v, err := snap.Table("T")
				if err != nil {
					errs <- err
					return
				}
				got, want := viewDocs(v), chainDocs(v)
				if snap != old {
					snap.Release()
				} else if !slices.Equal(got, oldDocs) {
					errs <- fmt.Errorf("the pinned snapshot scanned %d documents, want its %d", len(got), len(oldDocs))
					return
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Errorf("scan at stamp %d saw %d documents, the chains hold %d", v.LSN(), len(got), len(want))
					return
				}
				scans.Add(1)
			}
		}(r)
	}

	rnd := rand.New(rand.NewSource(9))
	// At least 400 commits, and on until the readers have scanned 300
	// times between them or one has failed.
	for i := 0; i < 400 || scans.Load() < 300 && len(errs) == 0; i++ {
		switch k := rnd.Intn(3); {
		case k == 0 || len(live) < 10:
			live = append(live, insert(t, db, tbl, doc(fmt.Sprintf("N%03d", i), 1)))
		case k == 1:
			replace(t, db, tbl, live[rnd.Intn(len(live))], doc(fmt.Sprintf("R%03d", i), 2))
		default:
			j := rnd.Intn(len(live))
			del(t, db, tbl, live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

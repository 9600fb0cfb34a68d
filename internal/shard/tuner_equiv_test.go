package shard

import (
	"fmt"
	"reflect"
	"testing"

	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/xindex"
)

// TestOneShardClusterTunesLikeServer checks the "same code" claim of
// the shared tuning round: a 1-shard cluster and a plain server fed
// the same statements recommend, hold pending and build the same
// definitions round for round, through a workload shift that
// exercises both hysteresis directions (default BuildAfter 2,
// DropAfter 3).
func TestOneShardClusterTunesLikeServer(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	srv := server.New(db, server.Config{})
	defer srv.Close()
	ssess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ssess.Close()

	c, err := NewCluster(Config{Shards: 1, Keys: map[string]string{"SECURITY": "/Security/Symbol"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("SECURITY"); err != nil {
		t.Fatal(err)
	}
	csess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer csess.Close()

	both := func(raw string) {
		t.Helper()
		if _, err := ssess.Execute(raw); err != nil {
			t.Fatalf("server: %s: %v", raw, err)
		}
		mustExec(t, csess, raw)
	}
	for i := 0; i < 120; i++ {
		both(insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}

	sawBuild, sawDrop := false, false
	for round := 1; round <= 14; round++ {
		// Point queries for four rounds, then only sector scans: the
		// symbol index builds, then decays out while a sector index
		// takes its place.
		for i := 0; i < 30; i++ {
			if round <= 4 {
				both(pointQuery(fmt.Sprintf("SYM%03d", (round*7+i)%120)))
			} else {
				both(sectorQuery(sectors[i%4]))
			}
		}
		srep, err := srv.TuneOnce()
		if err != nil {
			t.Fatal(err)
		}
		crep, err := c.TuneOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(srep.Recommended, crep.Recommended) {
			t.Fatalf("round %d: recommended\n server  %v\n cluster %v", round, srep.Recommended, crep.Recommended)
		}
		if srep.PendingBuild != crep.PendingBuild || srep.PendingDrop != crep.PendingDrop {
			t.Fatalf("round %d: pending %d/%d on the server, %d/%d on the cluster",
				round, srep.PendingBuild, srep.PendingDrop, crep.PendingBuild, crep.PendingDrop)
		}
		if !sameDefs(srep.Built, crep.Built) || !sameDefs(srep.Dropped, crep.Dropped) {
			t.Fatalf("round %d: server built %v dropped %v, cluster built %v dropped %v",
				round, srep.Built, srep.Dropped, crep.Built, crep.Dropped)
		}
		if got, want := c.Shard(0).Catalog().Definitions(), srv.Catalog().Definitions(); !sameDefs(got, want) {
			t.Fatalf("round %d: catalogs differ: server %v, cluster %v", round, want, got)
		}
		sawBuild = sawBuild || len(srep.Built) > 0
		sawDrop = sawDrop || len(srep.Dropped) > 0
	}
	if !sawBuild || !sawDrop {
		t.Fatalf("workload shift exercised build=%v drop=%v; want both", sawBuild, sawDrop)
	}
}

// sameDefs compares two definition lists as sets.
func sameDefs(a, b []xindex.Definition) bool {
	a, b = append([]xindex.Definition(nil), a...), append([]xindex.Definition(nil), b...)
	xindex.SortDefinitions(a)
	xindex.SortDefinitions(b)
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
)

var sectors = []string{"Energy", "Tech", "Finance", "Retail"}

func secDoc(symbol, sector string, yield float64) *xmltree.Document {
	return xmltree.NewBuilder().
		Begin("Security").
		Leaf("Symbol", symbol).
		LeafFloat("Yield", yield).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", sector).
		End().End().
		End().Document()
}

// fixtureDB builds a deterministic SECURITY table of n stable documents
// whose symbols and sectors the test queries target; the mutator storm
// uses disjoint symbols and a disjoint sector, so query results are
// invariant under any interleaving with the storm.
func fixtureDB(n int) *storage.Database {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		docs[i] = secDoc(fmt.Sprintf("S%05d", i), sectors[i%len(sectors)], float64(i%100)/10)
	}
	if _, err := db.Load("SECURITY", docs...); err != nil {
		panic(err)
	}
	return db
}

func pointQuery(i int) string {
	return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "S%05d" return $s`, i)
}

func sectorQuery(sector string) string {
	return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Sector = "%s" return $s`, sector)
}

// clientScript is the deterministic statement sequence of one client.
func clientScript(client, count int) []string {
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if i%5 == 4 {
			out = append(out, sectorQuery(sectors[(client+i)%len(sectors)]))
		} else {
			out = append(out, pointQuery((client*37+i*11)%300))
		}
	}
	return out
}

func refsKey(refs []xindex.Ref) string {
	var b []byte
	for _, r := range refs {
		b = fmt.Appendf(b, "%d:%d,", r.Doc, r.Node)
	}
	return string(b)
}

// indexEntries lists an index's entries in key order.
func indexEntries(idx *xindex.Index) []string {
	var out []string
	idx.Walk(func(k []byte, r xindex.Ref) bool {
		out = append(out, fmt.Sprintf("%x|%d|%d", k, r.Doc, r.Node))
		return true
	})
	return out
}

// TestServeWhileTuneE2E is the subsystem's acceptance test: 8
// concurrent clients issue queries while a mutator streams
// inserts/updates/deletes through the same server; the tuning loop
// materializes at least one index online mid-traffic; post-swap plans
// use it; and every query's results are bit-identical to a serial
// replay of the same statement sequence on an untuned server.
func TestServeWhileTuneE2E(t *testing.T) {
	const (
		clients   = 8
		perClient = 25
		stable    = 300
	)
	srv := New(fixtureDB(stable), Config{BuildAfter: 2, DropAfter: 3})
	defer srv.Close()

	// Mutator: streams inserts, copy-on-write updates, and deletes of
	// its own STORM documents for the whole test. Its sector and
	// symbols are disjoint from everything the clients query.
	stopStorm := make(chan struct{})
	stormDone := make(chan error, 1)
	go func() {
		sess, err := srv.NewSession()
		if err != nil {
			stormDone <- err
			return
		}
		defer sess.Close()
		exec := func(raw string) bool {
			if _, err := sess.Execute(raw); err != nil && err != ErrOverloaded {
				stormDone <- fmt.Errorf("storm %q: %w", raw, err)
				return false
			}
			return true
		}
		live := 0
		for i := 0; ; i++ {
			select {
			case <-stopStorm:
				// Drain: delete every storm document still present.
				for j := live - 1; j >= 0; j-- {
					if !exec(fmt.Sprintf(`delete from SECURITY where /Security[Symbol="STORM%05d"]`, j)) {
						return
					}
				}
				stormDone <- nil
				return
			default:
			}
			if !exec(fmt.Sprintf(`insert into SECURITY value <Security><Symbol>STORM%05d</Symbol><Yield>%d.5</Yield><SecInfo><StockInformation><Sector>Storm</Sector></StockInformation></SecInfo></Security>`, i, 900+i%50)) {
				return
			}
			live = i + 1
			if !exec(fmt.Sprintf(`update SECURITY set Yield = %d.25 where /Security[Symbol="STORM%05d"]`, 950+i%20, i)) {
				return
			}
			if i >= 8 {
				if !exec(fmt.Sprintf(`delete from SECURITY where /Security[Symbol="STORM%05d"]`, i-8)) {
					return
				}
			}
		}
	}()

	runPhase := func(results [][]string) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sess, err := srv.NewSession()
				if err != nil {
					errs <- err
					return
				}
				defer sess.Close()
				for _, raw := range clientScript(c, perClient) {
					res, err := sess.Execute(raw)
					for err == ErrOverloaded {
						res, err = sess.Execute(raw)
					}
					if err != nil {
						errs <- fmt.Errorf("client %d %q: %w", c, raw, err)
						return
					}
					results[c] = append(results[c], refsKey(res.Refs))
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// Phase 1: concurrent queries fill the capture ring while the storm
	// runs.
	phase1 := make([][]string, clients)
	runPhase(phase1)

	// Tuning rounds mid-traffic: with BuildAfter=2 the first round only
	// accumulates streak, the second materializes. The storm keeps
	// mutating the table during both, so the builds are genuinely
	// online.
	var built int
	for round := 0; round < 4 && built == 0; round++ {
		rep, err := srv.TuneOnce()
		if err != nil {
			t.Fatal(err)
		}
		built += len(rep.Built)
		if round == 0 && len(rep.Built) > 0 {
			t.Fatal("hysteresis violated: built on first round with BuildAfter=2")
		}
	}
	if built == 0 {
		t.Fatal("tuning loop materialized no index")
	}
	defs := srv.Catalog().Definitions()
	if len(defs) == 0 {
		t.Fatal("catalog empty after tuning")
	}
	for _, def := range defs {
		idx, ok := srv.Catalog().Get(def)
		if !ok || !idx.SelfMaintained() {
			t.Fatalf("index %s not online-built", def)
		}
	}

	// Post-swap plans use the materialized indexes.
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Explain(pointQuery(42))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatalf("post-swap plan does not use indexes: %s", plan)
	}
	sess.Close()

	// Phase 2: the same scripts again, now running index plans while
	// the storm still mutates the table.
	phase2 := make([][]string, clients)
	runPhase(phase2)

	close(stopStorm)
	if err := <-stormDone; err != nil {
		t.Fatal(err)
	}

	// The storm cleaned up after itself: only stable documents remain.
	tbl, err := srv.DB().Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.DocCount() != stable {
		t.Fatalf("table holds %d docs after storm drain, want %d", tbl.DocCount(), stable)
	}

	// Every materialized online index must now equal a cold build bit
	// for bit.
	for _, def := range srv.Catalog().Definitions() {
		online, _ := srv.Catalog().Get(def)
		cold, err := xindex.Build(tbl, def)
		if err != nil {
			t.Fatal(err)
		}
		got, want := indexEntries(online), indexEntries(cold)
		if len(got) != len(want) {
			t.Fatalf("online %s: %d entries, cold build %d", def, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("online %s entry %d: %s != %s", def, i, got[i], want[i])
			}
		}
	}

	// Serial replay: a fresh, untuned server executes the same scripts
	// one statement at a time; every result must match both concurrent
	// phases bit for bit.
	replaySrv := New(fixtureDB(stable), Config{})
	defer replaySrv.Close()
	rsess, err := replaySrv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rsess.Close()
	for c := 0; c < clients; c++ {
		for i, raw := range clientScript(c, perClient) {
			res, err := rsess.Execute(raw)
			if err != nil {
				t.Fatal(err)
			}
			want := refsKey(res.Refs)
			if phase1[c][i] != want {
				t.Fatalf("client %d stmt %d: concurrent phase-1 result diverges from serial replay\n got %s\nwant %s",
					c, i, phase1[c][i], want)
			}
			if phase2[c][i] != want {
				t.Fatalf("client %d stmt %d: concurrent phase-2 (post-swap) result diverges from serial replay\n got %s\nwant %s",
					c, i, phase2[c][i], want)
			}
		}
	}
}

// TestAdmissionControl fills the bounded work queue deterministically
// (the commit gate is held exclusively, so DML statements pile up at
// commit) and asserts the next statement is rejected with
// ErrOverloaded instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	srv := New(fixtureDB(20), Config{MaxConcurrent: 2, QueueDepth: 2})
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv.commitGate.Lock()
	var wg sync.WaitGroup
	const inFlight = 4 // MaxConcurrent + QueueDepth
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := fmt.Sprintf(`insert into SECURITY value <Security><Symbol>ADM%02d</Symbol></Security>`, i)
			if _, err := sess.Execute(raw); err != nil {
				t.Errorf("queued insert %d: %v", i, err)
			}
		}(i)
	}
	// Wait until all four statements occupy the system (2 executing +
	// 2 queued).
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.admit) < inFlight {
		if time.Now().After(deadline) {
			srv.commitGate.Unlock()
			t.Fatalf("work queue never filled: %d/%d", len(srv.admit), inFlight)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sess.Execute(pointQuery(1)); err != ErrOverloaded {
		srv.commitGate.Unlock()
		t.Fatalf("overloaded server returned %v, want ErrOverloaded", err)
	}
	srv.commitGate.Unlock()
	wg.Wait()

	// Load drained: statements flow again.
	if _, err := sess.Execute(pointQuery(1)); err != nil {
		t.Fatalf("post-drain execute: %v", err)
	}
}

func TestSessionCap(t *testing.T) {
	srv := New(fixtureDB(10), Config{MaxSessions: 2})
	defer srv.Close()
	s1, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.NewSession(); err != ErrTooManySessions {
		t.Fatalf("third session: %v, want ErrTooManySessions", err)
	}
	s1.Close()
	s1.Close() // idempotent
	s3, err := srv.NewSession()
	if err != nil {
		t.Fatalf("session after close: %v", err)
	}
	s3.Close()
	s2.Close()
}

// TestTuneHysteresis walks the tuner through a workload shift: a hot
// query's index is built only after BuildAfter consecutive
// recommendations, and once the workload moves on (capture decay
// evaporates the old query), the index is dropped only after DropAfter
// consecutive rounds without it.
func TestTuneHysteresis(t *testing.T) {
	srv := New(fixtureDB(200), Config{
		BuildAfter:  2,
		DropAfter:   2,
		DecayFactor: 0.5,
		DecayFloor:  3, // weight 16 survives 2 decays, evaporates on the 3rd
	})
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	symbolDef := func() (xindex.Definition, bool) {
		for _, def := range srv.Catalog().Definitions() {
			if def.Pattern.String() == "/Security/Symbol" {
				return def, true
			}
		}
		return xindex.Definition{}, false
	}

	// Hot phase: the point query dominates.
	for i := 0; i < 16; i++ {
		if _, err := sess.Execute(pointQuery(7)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := srv.TuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Built) != 0 || rep.PendingBuild == 0 {
		t.Fatalf("round 1 built %v (pending %d), want pure streak accumulation", rep.Built, rep.PendingBuild)
	}
	if _, ok := symbolDef(); ok {
		t.Fatal("symbol index materialized before hysteresis matured")
	}
	rep, err = srv.TuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Built) == 0 {
		t.Fatalf("round 2 built nothing: %+v", rep)
	}
	if _, ok := symbolDef(); !ok {
		t.Fatal("symbol index missing after build round")
	}

	// Workload shift: only sector queries from here on. The point
	// query's weight decays out of the capture; the symbol index must
	// survive DropAfter-1 rounds and fall on the next.
	droppedAt := 0
	for round := 3; round <= 8; round++ {
		for i := 0; i < 4; i++ {
			if _, err := sess.Execute(sectorQuery("Tech")); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := srv.TuneOnce()
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range rep.Dropped {
			if def.Pattern.String() == "/Security/Symbol" {
				droppedAt = round
			}
		}
		if droppedAt != 0 {
			break
		}
	}
	if droppedAt == 0 {
		t.Fatal("symbol index never dropped after the workload shifted")
	}
	if _, ok := symbolDef(); ok {
		t.Fatal("dropped index still in catalog")
	}
}

// TestSnapshotWarmStart persists a tuned server and asserts the
// restarted one comes up with the catalog materialized and serving
// index plans immediately.
func TestSnapshotWarmStart(t *testing.T) {
	srv := New(fixtureDB(150), Config{BuildAfter: 1})
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sess.Execute(pointQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := srv.TuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Built) == 0 {
		t.Fatal("no index built before snapshot")
	}
	wantDefs := srv.Catalog().Definitions()
	wantRes, err := sess.Execute(pointQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	path := filepath.Join(t.TempDir(), "xixa.db")
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	restored, err := OpenSnapshot(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	gotDefs := restored.Catalog().Definitions()
	if len(gotDefs) != len(wantDefs) {
		t.Fatalf("restored catalog has %d defs, want %d", len(gotDefs), len(wantDefs))
	}
	for i := range gotDefs {
		if gotDefs[i].Key() != wantDefs[i].Key() {
			t.Fatalf("restored def %d = %s, want %s", i, gotDefs[i], wantDefs[i])
		}
		idx, ok := restored.Catalog().Get(gotDefs[i])
		if !ok || idx.Entries() == 0 {
			t.Fatalf("restored index %s is cold", gotDefs[i])
		}
		if !idx.SelfMaintained() {
			t.Fatalf("restored index %s not feed-maintained", gotDefs[i])
		}
	}
	rsess, err := restored.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rsess.Close()
	plan, err := rsess.Explain(pointQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatalf("restored server scans instead of probing: %s", plan)
	}
	res, err := rsess.Execute(pointQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if refsKey(res.Refs) != refsKey(wantRes.Refs) {
		t.Fatalf("restored results diverge: %s vs %s", refsKey(res.Refs), refsKey(wantRes.Refs))
	}
}

// TestClosedServerRejects asserts post-Close behavior: statements and
// sessions are refused, and the server's online indexes detach from
// the (caller-owned) database's change feeds.
func TestClosedServerRejects(t *testing.T) {
	db := fixtureDB(50)
	srv := New(db, Config{BuildAfter: 1})
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(pointQuery(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.TuneOnce(); err != nil {
		t.Fatal(err)
	}
	defs := srv.Catalog().Definitions()
	if len(defs) == 0 {
		t.Fatal("no index built before Close")
	}
	idx, _ := srv.Catalog().Get(defs[0])
	srv.Close()
	srv.Close() // idempotent
	if _, err := sess.Execute(pointQuery(1)); err != ErrClosed {
		t.Fatalf("execute on closed server: %v, want ErrClosed", err)
	}
	if _, err := srv.NewSession(); err != ErrClosed {
		t.Fatalf("session on closed server: %v, want ErrClosed", err)
	}
	// Closed server's indexes no longer tax the database's mutations.
	entries := idx.Entries()
	if _, err := db.Load("SECURITY", secDoc("POSTCLOSE", "Tech", 1.0)); err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != entries {
		t.Fatal("closed server's index still feed-maintained")
	}
}

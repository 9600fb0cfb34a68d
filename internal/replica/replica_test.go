package replica

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xixa/internal/persist"
	"xixa/internal/replica/faultnet"
	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xmltree"
)

// Test rig: a primary server on a loopback listener and followers
// pointed at it, all on SyncOff (commits still flush to the OS, which
// is what the stream reads) with millisecond heartbeats and backoff.

func secDoc(symbol string, yield int) *xmltree.Document {
	return xmltree.NewBuilder().Begin("Security").
		Leaf("Symbol", symbol).
		LeafFloat("Yield", float64(yield%90)/10).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", "Replicated").
		End().End().
		End().Document()
}

func bootstrap(n int) func() (*storage.Database, error) {
	return func() (*storage.Database, error) {
		db := storage.NewDatabase()
		db.MustCreateTable("SECURITY")
		docs := make([]*xmltree.Document, n)
		for i := range docs {
			docs[i] = secDoc(fmt.Sprintf("B%05d", i), i)
		}
		_, err := db.Load("SECURITY", docs...)
		return db, err
	}
}

func insertStmt(sym string, yield int) string {
	return fmt.Sprintf(`insert into SECURITY value <Security><Symbol>%s</Symbol><Yield>%d.5</Yield><SecInfo><StockInformation><Sector>Replicated</Sector></StockInformation></SecInfo></Security>`, sym, yield%9)
}

func primaryCfg(dir string) server.Config {
	return server.Config{WALDir: dir, SyncPolicy: wal.SyncOff, BuildAfter: 1, DropAfter: 10}
}

// startPrimary recovers a primary server and serves replication on a
// loopback port, returning the primary and its address.
func startPrimary(t *testing.T, dir string, seed int) (*Primary, string) {
	t.Helper()
	srv, _, err := server.Recover(primaryCfg(dir), bootstrap(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(srv, PrimaryConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return p, addr
}

func followerCfg(dir, addr string) FollowerConfig {
	return FollowerConfig{
		PrimaryAddr:   addr,
		Dir:           dir,
		Server:        server.Config{SyncPolicy: wal.SyncOff, BuildAfter: 1, DropAfter: 10},
		ReconnectBase: time.Millisecond,
		ReconnectMax:  20 * time.Millisecond,
		StaleAfter:    500 * time.Millisecond,
	}
}

func dbBytes(t *testing.T, s *server.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, s.DB(), s.Catalog().Definitions()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitApplied blocks until the follower has applied through target.
func waitApplied(t *testing.T, f *Follower, target uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.Info().AppliedLSN >= target {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	info := f.Info()
	t.Fatalf("follower stuck at LSN %d (durable %d, want %d, reconnects %d, err %v)",
		info.AppliedLSN, info.DurableLSN, target, info.Reconnects, info.Err)
}

// verifyLogSequence scans the follower's whole log and fails on any
// gap or duplicate — the no-loss/no-dup oracle.
func verifyLogSequence(t *testing.T, l *wal.Log, wantTip uint64) {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := l.Cursor(l.EarliestLSN())
	defer cur.Close()
	next := l.EarliestLSN() + 1
	for {
		lsn, _, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if lsn == 0 {
			break
		}
		if lsn != next {
			t.Fatalf("log sequence broken: got LSN %d, want %d", lsn, next)
		}
		next++
	}
	if next != wantTip+1 {
		t.Fatalf("log ends at LSN %d, want %d", next-1, wantTip)
	}
}

// TestStreamAndCatchUp is the basic shipping test: a follower adopts
// history written before it existed, tails writes made while it
// watches, and ends bit-identical, with lag visible on both ends.
func TestStreamAndCatchUp(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 30)
	defer p.Close()
	defer p.Server().Close()
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("PR%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)

	// Live tail: writes made while the follower is connected.
	for i := 10; i < 30; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("PR%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 5*time.Second)

	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("follower image diverged from primary")
	}
	verifyLogSequence(t, f.Server().WAL(), tip)

	// The follower serves reads and refuses writes.
	fsess, err := f.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "PR005" return $s`); err != nil {
		t.Fatalf("follower read: %v", err)
	}
	if _, err := fsess.Execute(insertStmt("NOPE", 1)); err == nil {
		t.Fatal("follower accepted a write")
	}
	if info := f.Info(); info.Epoch != p.Epoch() {
		t.Fatalf("follower witnessed epoch %d, primary is %d", info.Epoch, p.Epoch())
	}

	// Lag bookkeeping: after an ack round both sides agree.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sts := p.Status()
		if len(sts) == 1 && sts[0].AckedLSN == tip && sts[0].LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the follower ack the tip: %+v", sts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotBootstrap: a primary without an archive checkpoints and
// truncates its history; a fresh follower cannot chain from LSN 0 and
// must adopt the shipped checkpoint before tailing the stream.
func TestSnapshotBootstrap(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 15)
	defer p.Close()
	defer p.Server().Close()
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("SN%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Server().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.Server().WAL().EarliestLSN() == 0 {
		t.Fatal("test needs truncated history to force the snapshot path")
	}
	for i := 12; i < 18; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("SN%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 5*time.Second)
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("snapshot-bootstrapped follower diverged from primary")
	}
}

// TestSnapshotBootstrapAfterMultiInsertTxn: a checkpoint holding more
// documents than its stamp — one 12-insert transaction commits under
// stamp 1 — must bootstrap a follower at exactly that stamp. Loading it
// one stamp per document put the follower at watermark 12, so it dropped
// the primary's stamps 2-7 as duplicates and reported itself caught up
// holding 12 documents against the primary's 18.
func TestSnapshotBootstrapAfterMultiInsertTxn(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 0)
	defer p.Close()
	defer p.Server().Close()
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := tx.Execute(insertStmt(fmt.Sprintf("MT%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Server().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 18; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("MT%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)
	if got, want := f.Server().DB().Watermark(), p.Server().DB().Watermark(); got != want || want != 7 {
		t.Fatalf("follower watermark %d, primary %d; want both 7 (checkpoint stamp 1 + 6 commits)", got, want)
	}
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("follower bootstrapped from a multi-insert checkpoint diverged from primary")
	}
}

// TestReconnectSurvivesSevers is the fault acceptance test: 100
// connections severed at random byte offsets — mid-handshake,
// mid-record, mid-ack — while the primary keeps committing. The
// follower's jittered-backoff reconnect loop must deliver every record
// exactly once.
func TestReconnectSurvivesSevers(t *testing.T) {
	const severs = 100
	p, addr := startPrimary(t, t.TempDir(), 20)
	defer p.Close()
	defer p.Server().Close()

	// Connection 0 is the bootstrap pre-flight; fault everything after
	// it until `severs` cuts have been dealt, then run clean so the
	// tail converges.
	plans := faultnet.RandomSevers(0xC0FFEE, 150, 2500, 1)
	var dealt atomic.Int64
	cfg := followerCfg(t.TempDir(), addr)
	cfg.Dial = faultnet.Dialer(func(i int) faultnet.Plan {
		if i >= 1 && dealt.Add(1) <= severs {
			return plans(i)
		}
		return faultnet.Plan{}
	})
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("SV%04d", i), i)); err != nil {
			t.Fatal(err)
		}
		if f.Info().Reconnects < severs && i%10 == 9 {
			time.Sleep(time.Millisecond) // let the faults keep biting mid-burst
		}
	}
	// Keep the stream under fire until every faulty connection has been
	// consumed, then let it catch up clean.
	deadline := time.Now().Add(30 * time.Second)
	for dealt.Load() <= severs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d faulty connections consumed", dealt.Load())
		}
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("SX%07d", int(dealt.Load())), 1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 30*time.Second)

	if got := f.Info().Reconnects; got < severs {
		t.Fatalf("only %d reconnects recorded, want >= %d", got, severs)
	}
	verifyLogSequence(t, f.Server().WAL(), tip)
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("follower diverged after sever storm")
	}
}

// TestByteFaultsDesyncAndRecover: a dropped byte and a duplicated byte
// each desync the stream (caught by the frame CRC), and a sever inside
// a record frame tears it mid-record; all three end in a clean
// reconnect with no record lost or doubled.
func TestByteFaultsDesyncAndRecover(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 10)
	defer p.Close()
	defer p.Server().Close()

	cfg := followerCfg(t.TempDir(), addr)
	cfg.Dial = faultnet.Dialer(func(i int) faultnet.Plan {
		switch i {
		case 1:
			return faultnet.Plan{DropAt: 40} // swallow a byte of the follower's first ack
		case 2:
			return faultnet.Plan{DupAt: 60} // double a byte of a later ack
		case 3:
			return faultnet.Plan{SeverAfter: 75} // tear mid-record on the stream side
		}
		return faultnet.Plan{}
	})
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("BF%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// The drop/dup faults corrupt the ack direction: the primary's
	// frame reader desyncs and drops the connection on its next ack,
	// which rides a heartbeat — so give the stream idle time to cycle
	// through all three scripted faults.
	deadline := time.Now().Add(15 * time.Second)
	for f.Info().Reconnects < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("faults did not bite: %d reconnects", f.Info().Reconnects)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 40; i < 50; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("BF%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 10*time.Second)
	verifyLogSequence(t, f.Server().WAL(), tip)
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("follower diverged after byte faults")
	}
}

// TestPromoteTruncatesOpenFrame is the failover acceptance test: the
// primary dies after streaming half a transaction frame; the promoted
// follower truncates the unterminated frame and is bit-identical to
// the dead primary's committed prefix, then accepts writes under a
// higher epoch.
func TestPromoteTruncatesOpenFrame(t *testing.T) {
	pdir := t.TempDir()
	p, addr := startPrimary(t, pdir, 15)
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("PM%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	committedTip := p.Server().WAL().LastLSN()
	committedImage := dbBytes(t, p.Server())
	waitApplied(t, f, committedTip, 5*time.Second)

	// The primary "dies" mid-transaction: a begin record and one
	// operation reach the wire, the commit record never does. The
	// records stream to the follower (Sync flushes them) and buffer in
	// its applier without publishing.
	ins, err := wal.EncodeDocInsert("SECURITY", secDoc("PMLOST", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Server().WAL().AppendTxn([][]byte{wal.EncodeTxnBegin(7), ins}); err != nil {
		t.Fatal(err)
	}
	if err := p.Server().WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, committedTip+2, 5*time.Second)
	p.Close()
	p.Server().Close()

	epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if got := f.Server().WAL().LastLSN(); got != committedTip {
		t.Fatalf("promotion left the log at LSN %d, want the committed prefix %d", got, committedTip)
	}
	if !bytes.Equal(dbBytes(t, f.Server()), committedImage) {
		t.Fatal("promoted follower is not bit-identical to the dead primary's committed prefix")
	}

	// The promoted node serves writes, and its own recovery holds them.
	psess, err := f.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psess.Execute(insertStmt("PMNEW", 5)); err != nil {
		t.Fatalf("write on promoted follower: %v", err)
	}
	if f.Server().WAL().LastLSN() != committedTip+1 {
		t.Fatal("post-promotion write did not land at the truncated tail")
	}
	f.Server().Close()
	f.Close()

	// And RestoreToLSN over the dead primary's directory at the
	// follower's applied position is the independent oracle for the
	// same committed prefix.
	res, err := server.RestoreToLSN(pdir, "", committedTip)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, res.DB, res.Defs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committedImage) {
		t.Fatal("restore oracle disagrees with the committed prefix")
	}
}

// TestFollowerReplaysIndexDrop is the follower twin of the server's
// TestRecoverReplaysIndexDrop: the primary's tuner builds indexes and
// later drops one, the drop record arrives on the stream, and the
// follower's index hook runs DropDeferred — its catalog and database
// must end bit-identical to the primary's, with the surviving indexes
// still maintained by the writes that follow.
func TestFollowerReplaysIndexDrop(t *testing.T) {
	cfg := primaryCfg(t.TempDir())
	cfg.DropAfter = 1
	srv, _, err := server.Recover(cfg, bootstrap(40))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := NewPrimary(srv, PrimaryConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addr, err := p.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	query := func(raw string) {
		t.Helper()
		if _, err := sess.Execute(raw); err != nil {
			t.Fatal(err)
		}
	}
	point := func(i int) string {
		return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "B%05d" return $s`, i)
	}
	// Round 1 sees both query shapes and builds an index for each; after
	// that only the point queries keep arriving, so the sector query
	// decays out of the capture and its index is dropped.
	query(`for $s in SECURITY('SDOC')/Security where $s/Yield > 8.5 return $s`)
	built, dropped := 0, 0
	for round := 0; round < 12 && dropped == 0; round++ {
		for i := 0; i < 10; i++ {
			query(point(i))
		}
		rep, err := srv.TuneOnce()
		if err != nil {
			t.Fatal(err)
		}
		built += len(rep.Built)
		dropped += len(rep.Dropped)
	}
	if built < 2 || dropped == 0 {
		t.Fatalf("tuner built %d and dropped %d indexes; the streamed drop path is untested", built, dropped)
	}
	if _, err := sess.Execute(insertStmt("B00007", 88)); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, srv.WAL().LastLSN(), 5*time.Second)

	want := srv.Catalog().Definitions()
	got := f.Server().Catalog().Definitions()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("follower catalog holds %d definitions, primary %d (want equal and non-empty)", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("follower definition %d = %s, primary has %s", i, got[i], want[i])
		}
	}
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, srv)) {
		t.Fatal("follower image diverged from primary after the streamed index drop")
	}
	// The surviving index answers on the follower, the post-drop insert
	// included (two documents now carry the symbol).
	fsess, err := f.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fsess.Execute(point(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Refs) != 2 {
		t.Fatalf("follower point query found %d documents, want 2", len(res.Refs))
	}
}

// TestZombieFencing: when any node that has witnessed a newer epoch
// contacts the old primary, the old primary fences itself permanently
// — reads keep serving, writes refuse, followers are turned away.
func TestZombieFencing(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 10)
	defer p.Close()
	defer p.Server().Close()
	if p.Epoch() != 1 {
		t.Fatalf("fresh primary epoch = %d, want 1", p.Epoch())
	}

	// A node that witnessed epoch 2 (a promotion happened elsewhere)
	// says hello.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	if err := writeFrame(bw, msgHello, u64Pair(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	mt, body, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if mt != msgError || !strings.Contains(string(body), "fenced") {
		t.Fatalf("zombie primary answered %d %q, want a fenced error", mt, body)
	}
	if !p.Server().Fenced() {
		t.Fatal("primary did not fence itself")
	}

	// Writes refuse; reads keep working.
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(insertStmt("ZB000", 1)); err == nil {
		t.Fatal("fenced primary accepted a write")
	}
	if _, err := sess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "B00001" return $s`); err != nil {
		t.Fatalf("fenced primary refused a read: %v", err)
	}

	// A late follower (epoch 1) is turned away too.
	cfg := followerCfg(t.TempDir(), addr)
	if _, err := StartFollower(cfg); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("follower of a fenced primary: err = %v, want fenced refusal", err)
	}
}

// TestReplicationSoak runs concurrent writers (plain statements and
// multi-op transaction frames) against a primary with two followers —
// one clean, one behind a fault-injecting dialer — plus a mid-run
// checkpoint into an archive, and requires both followers to converge
// bit-identically with gapless logs. CI runs this under -race.
func TestReplicationSoak(t *testing.T) {
	writes := 60
	if testing.Short() {
		writes = 15
	}
	pdir := t.TempDir()
	scfg := primaryCfg(pdir)
	scfg.SegmentBytes = 16 << 10
	scfg.ArchiveDir = pdir + "/archive"
	srv, _, err := server.Recover(scfg, bootstrap(20))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(srv, PrimaryConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer srv.Close()

	clean, err := StartFollower(followerCfg(t.TempDir(), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	fcfg := followerCfg(t.TempDir(), addr)
	fcfg.Dial = faultnet.Dialer(func(i int) faultnet.Plan {
		if i >= 1 && i%2 == 1 {
			return faultnet.Plan{SeverAfter: 400 + int64(i)*37%1600}
		}
		return faultnet.Plan{}
	})
	faulty, err := StartFollower(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := srv.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer ws.Close()
			for i := 0; i < writes; i++ {
				if i%5 == 4 {
					tx, err := ws.Begin()
					if err != nil {
						errCh <- err
						return
					}
					for j := 0; j < 3; j++ {
						if _, err := tx.Execute(insertStmt(fmt.Sprintf("TX%d_%03d_%d", w, i, j), j)); err != nil {
							errCh <- err
							return
						}
					}
					if err := tx.Commit(); err != nil && err != storage.ErrConflict {
						errCh <- err
						return
					}
				} else if _, err := ws.Execute(insertStmt(fmt.Sprintf("WK%d_%03d", w, i), i)); err != nil {
					errCh <- err
					return
				}
				if w == 0 && i == writes/2 {
					if err := srv.Checkpoint(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	tip := srv.WAL().LastLSN()
	waitApplied(t, clean, tip, 30*time.Second)
	waitApplied(t, faulty, tip, 60*time.Second)
	want := dbBytes(t, srv)
	if !bytes.Equal(dbBytes(t, clean.Server()), want) {
		t.Fatal("clean follower diverged")
	}
	if !bytes.Equal(dbBytes(t, faulty.Server()), want) {
		t.Fatal("faulty-link follower diverged")
	}
	verifyLogSequence(t, clean.Server().WAL(), tip)
	verifyLogSequence(t, faulty.Server().WAL(), tip)
}

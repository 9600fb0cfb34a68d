package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xixa/internal/obs"
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
	if err := wal.SaveCheckpoint(&buf, s.DB(), s.Catalog().Definitions(), 0, 0); err != nil {
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
	cur := l.Cursor(l.StartLSN())
	defer cur.Close()
	next := l.StartLSN() + 1
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

// TestSnapshotBootstrap: a primary checkpoints and truncates its
// history; a fresh follower cannot chain from LSN 0 and must adopt the
// shipped checkpoint before tailing the stream.
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
	if p.Server().WAL().StartLSN() == 0 {
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

// TestFreshFollowerWaitsForPrimary: a follower started in an empty
// directory while its primary is unreachable must still start from the
// primary's image. The primary has not checkpointed past LSN 0, so its
// 10 seed documents exist only in that image; a follower that recovered
// empty instead would stream from LSN 1, report itself caught up, and
// miss every one of them.
func TestFreshFollowerWaitsForPrimary(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 10)
	defer p.Close()
	defer p.Server().Close()

	const refused = 3
	var dials atomic.Int64
	cfg := followerCfg(t.TempDir(), addr)
	cfg.Dial = func(addr string) (net.Conn, error) {
		if dials.Add(1) <= refused {
			return nil, errors.New("primary down")
		}
		return net.DialTimeout("tcp", addr, time.Second)
	}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := dials.Load(); n <= refused {
		t.Fatalf("StartFollower returned after %d dials, all refused", n)
	}

	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(insertStmt("FW0001", 1)); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatalf("follower holds %d bytes of database, primary %d: the seed is missing", len(dbBytes(t, f.Server())), len(dbBytes(t, p.Server())))
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
// exactly once. The start's snapshot transfers are cut too, on top of
// the 100.
func TestReconnectSurvivesSevers(t *testing.T) {
	const severs = 100
	p, addr := startPrimary(t, t.TempDir(), 20)
	defer p.Close()
	defer p.Server().Close()

	// Fault every connection StartFollower dials, then every later one
	// until `severs` cuts have been dealt on the live stream, then run
	// clean so the tail converges.
	plans := faultnet.RandomSevers(0xC0FFEE, 150, 2500, 0)
	var started atomic.Bool
	var dealt atomic.Int64
	cfg := followerCfg(t.TempDir(), addr)
	cfg.Dial = faultnet.Dialer(func(i int) faultnet.Plan {
		if !started.Load() || dealt.Add(1) <= severs {
			return plans(i)
		}
		return faultnet.Plan{}
	})
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Every counted connection is dialed after this read, so its loss
	// is counted after it too.
	base := f.Info().Reconnects
	started.Store(true)

	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := sess.Execute(insertStmt(fmt.Sprintf("SV%04d", i), i)); err != nil {
			t.Fatal(err)
		}
		if f.Info().Reconnects-base < severs && i%10 == 9 {
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

	if got := f.Info().Reconnects - base; got < severs {
		t.Fatalf("only %d reconnects recorded after start, want >= %d", got, severs)
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
		case 0:
			return faultnet.Plan{DropAt: 40} // swallow a byte of the follower's first ack
		case 1:
			return faultnet.Plan{DupAt: 60} // double a byte of a later ack
		case 2:
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

// TestPromoteAfterPrimaryDies is the failover acceptance test: the
// primary dies right after a streamed 3-insert transaction commits;
// the promoted follower is bit-identical to the dead primary, then
// accepts writes at the next LSN under a higher epoch.
func TestPromoteAfterPrimaryDies(t *testing.T) {
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
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)

	// The last thing the primary does: a 3-insert transaction, one
	// commit record, streamed to the follower before the primary dies.
	before := p.Server().WAL().LastLSN()
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tx.Execute(insertStmt(fmt.Sprintf("PMTX%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committedTip := p.Server().WAL().LastLSN()
	if committedTip != before+1 {
		t.Fatalf("3-insert transaction spans LSNs (%d, %d], want exactly one", before, committedTip)
	}
	committedImage := dbBytes(t, p.Server())
	waitApplied(t, f, committedTip, 5*time.Second)
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
		t.Fatalf("promotion left the log at LSN %d, want the primary's tip %d", got, committedTip)
	}
	if !bytes.Equal(dbBytes(t, f.Server()), committedImage) {
		t.Fatal("promoted follower is not bit-identical to the dead primary")
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
		t.Fatal("post-promotion write did not land at the primary's tip + 1")
	}
	f.Server().Close()
	f.Close()

	// And recovering a copy of the dead primary's directory is the
	// independent oracle for the same committed prefix.
	dead, _, err := server.Recover(primaryCfg(copyDir(t, pdir)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	if dead.WAL().LastLSN() != committedTip || !bytes.Equal(dbBytes(t, dead), committedImage) {
		t.Fatal("recovering the dead primary's directory disagrees with the committed prefix")
	}
}

// copyDir copies the files of a durability directory into a fresh one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// holdableDialer dials for real until hold is called; hold severs every
// connection it made and refuses dials until release.
func holdableDialer() (dial func(string) (net.Conn, error), hold, release func()) {
	var mu sync.Mutex
	held := false
	var conns []net.Conn
	dial = func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if held {
			c.Close()
			return nil, errors.New("held off")
		}
		conns = append(conns, c)
		return c, nil
	}
	hold = func() {
		mu.Lock()
		defer mu.Unlock()
		held = true
		for _, c := range conns {
			c.Close()
		}
		conns = nil
	}
	release = func() {
		mu.Lock()
		held = false
		mu.Unlock()
	}
	return dial, hold, release
}

// TestLiveFollowerRebootstraps: a follower held off while the primary
// takes writes and two checkpoints has fallen behind the primary's
// history when it reconnects. With no restart it adopts the primary's
// snapshot, replaces its server and streams on: bit-identical to the
// primary, with a gapless log from the snapshot's stamp and gauges on
// the new server, then promotable to a writable primary. A session of
// the replaced server fails with server.ErrClosed.
func TestLiveFollowerRebootstraps(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 10)
	defer p.Close()
	defer p.Server().Close()
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := sess.Execute(insertStmt(fmt.Sprintf("RB%03d", i), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 5)

	cfg := followerCfg(t.TempDir(), addr)
	dial, hold, release := holdableDialer()
	cfg.Dial = dial
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)
	before := f.Server()
	oldSess, err := before.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	hold()
	behind := f.Info().AppliedLSN
	for round := 0; round < 2; round++ {
		insert(5+10*round, 15+10*round)
		if err := p.Server().Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	insert(25, 30)
	snapLSN := p.Server().WAL().StartLSN()
	if snapLSN <= behind || f.Info().AppliedLSN != behind {
		t.Fatalf("follower at LSN %d, primary history starts at %d: the test needs the follower behind it", f.Info().AppliedLSN, snapLSN)
	}
	release()

	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 10*time.Second)
	now := f.Server()
	if now == before {
		t.Fatal("the follower caught up without replacing its server")
	}
	if got := now.WAL().StartLSN(); got != snapLSN {
		t.Fatalf("re-bootstrapped log starts at LSN %d, want the snapshot's %d", got, snapLSN)
	}
	verifyLogSequence(t, now.WAL(), tip)
	if !bytes.Equal(dbBytes(t, now), dbBytes(t, p.Server())) {
		t.Fatal("re-bootstrapped follower diverged from primary")
	}
	if v := obs.Values(now.Metrics().Snapshot())["xixa_replica_applied_lsn"]; v != float64(tip) {
		t.Fatalf("new server's xixa_replica_applied_lsn = %v, want %d", v, tip)
	}
	if _, err := oldSess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "RB001" return $s`); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("session of the replaced server: %v, want server.ErrClosed", err)
	}

	p.Close()
	p.Server().Close()
	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	defer f.Server().Close()
	psess, err := f.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psess.Execute(insertStmt("RBNEW", 5)); err != nil {
		t.Fatalf("write on the promoted follower: %v", err)
	}
	if got := f.Server().WAL().LastLSN(); got != tip+1 {
		t.Fatalf("post-promotion write at LSN %d, want %d", got, tip+1)
	}
}

// fakePrimary answers every follower connection's hello with a welcome
// and, when snapshot returns a body for that connection (numbered from
// 0), a snapshot frame carrying it; then it holds the connection open
// and silent.
func fakePrimary(t *testing.T, snapshot func(conn int) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(body []byte) {
				defer c.Close()
				br, bw := bufio.NewReader(c), bufio.NewWriter(c)
				if mt, _, err := readFrame(br); err != nil || mt != msgHello {
					return
				}
				welcome := append(message(msgWelcome, 1, 1), 0)
				if body != nil {
					welcome[9] = 1
				}
				wal.WriteFrame(bw, welcome)
				if body != nil {
					wal.WriteFrame(bw, append(message(msgSnapshot, len(body)), body...))
				}
				bw.Flush()
				io.Copy(io.Discard, br)
			}(snapshot(i))
		}
	}()
	return ln.Addr().String()
}

// TestSnapshotAdoptionRefusesMismatchedStamp: a snapshot frame whose
// LSN is not the stamp of the image it carries is refused — at start
// before any checkpoint is written, and mid-life with the old server
// still serving and its checkpoint untouched.
func TestSnapshotAdoptionRefusesMismatchedStamp(t *testing.T) {
	db, err := bootstrap(3)()
	if err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(t.TempDir(), "image.db")
	if err := wal.SaveCheckpointFile(imgPath, db, nil, 5, db.Watermark()); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	lying := append(binary.LittleEndian.AppendUint64(nil, 7), image...)

	t.Run("at start", func(t *testing.T) {
		dir := t.TempDir()
		addr := fakePrimary(t, func(int) []byte { return lying })
		if _, err := StartFollower(followerCfg(dir, addr)); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("StartFollower: %v, want the mismatched snapshot refused", err)
		}
		if _, err := os.Stat(server.CheckpointPath(dir)); !os.IsNotExist(err) {
			t.Fatalf("a refused snapshot left a checkpoint behind (stat: %v)", err)
		}
	})
	t.Run("live", func(t *testing.T) {
		dir := t.TempDir()
		addr := fakePrimary(t, func(conn int) []byte {
			if conn == 0 {
				return nil // the first connection: nothing to adopt
			}
			return lying
		})
		f, err := StartFollower(followerCfg(dir, addr))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		srv := f.Server()
		deadline := time.Now().Add(5 * time.Second)
		for info := f.Info(); info.Err == nil || !strings.Contains(info.Err.Error(), "refusing"); info = f.Info() {
			if time.Now().After(deadline) {
				t.Fatalf("follower never refused the snapshot (last error %v)", info.Err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if f.Server() != srv {
			t.Fatal("a refused snapshot replaced the follower's server")
		}
		sess, err := srv.NewSession()
		if err != nil {
			t.Fatalf("old server stopped serving: %v", err)
		}
		sess.Close()
		chk, err := os.Open(server.CheckpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer chk.Close()
		if lsn, err := wal.PeekCheckpointLSN(chk); err != nil || lsn != 0 {
			t.Fatalf("checkpoint after the refusal is stamped %d (%v), want the start-up one at 0", lsn, err)
		}
	})
}

// TestFollowerRestartsBehindCheckpoint: a follower stopped while the
// primary takes writes and two checkpoints restarts on its own
// directory behind the primary's history. It recovers its local state,
// then re-bootstraps in place on its first connection: bit-identical to
// the primary, with a gapless log from the snapshot's stamp.
func TestFollowerRestartsBehindCheckpoint(t *testing.T) {
	p, addr := startPrimary(t, t.TempDir(), 10)
	defer p.Close()
	defer p.Server().Close()
	sess, err := p.Server().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := sess.Execute(insertStmt(fmt.Sprintf("RS%03d", i), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 5)
	cfg := followerCfg(t.TempDir(), addr)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, p.Server().WAL().LastLSN(), 5*time.Second)
	behind := f.Info().AppliedLSN
	f.Close()

	for round := 0; round < 2; round++ {
		insert(5+10*round, 15+10*round)
		if err := p.Server().Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	insert(25, 30)
	snapLSN := p.Server().WAL().StartLSN()
	if snapLSN <= behind {
		t.Fatalf("primary history starts at LSN %d, follower stopped at %d: the test needs the follower behind it", snapLSN, behind)
	}

	f, err = StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tip := p.Server().WAL().LastLSN()
	waitApplied(t, f, tip, 10*time.Second)
	if got := f.Server().WAL().StartLSN(); got != snapLSN {
		t.Fatalf("restarted follower's log starts at LSN %d, want the snapshot's %d", got, snapLSN)
	}
	verifyLogSequence(t, f.Server().WAL(), tip)
	if !bytes.Equal(dbBytes(t, f.Server()), dbBytes(t, p.Server())) {
		t.Fatal("restarted follower diverged from primary")
	}
}

// TestStartRefusesZombie: a follower with local state that has
// witnessed epoch 2 is welcomed at epoch 1 on its first connection.
// StartFollower must refuse the zombie and close the server it
// recovered, whose SyncBatched log's flusher goroutine shows whether it
// is still open.
func TestStartRefusesZombie(t *testing.T) {
	dir := t.TempDir()
	cfg := followerCfg(dir, fakePrimary(t, func(int) []byte { return nil }))
	cfg.Server.SyncPolicy = wal.SyncBatched
	scfg := cfg.Server
	scfg.WALDir, scfg.Replica = dir, true
	srv, _, err := server.Recover(scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := StoreEpoch(dir, 2); err != nil {
		t.Fatal(err)
	}

	open := flushers()
	f, err := StartFollower(cfg)
	if err == nil {
		f.Close()
		t.Fatal("StartFollower accepted a welcome from epoch 1 after witnessing epoch 2")
	}
	if !strings.Contains(err.Error(), "zombie") {
		t.Fatalf("StartFollower: %v, want the zombie refused", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for flushers() > open {
		if time.Now().After(deadline) {
			t.Fatal("the refused follower left its recovered server open")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flushers counts running SyncBatched log flushers: one per open log.
func flushers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "wal.(*Log).flusher(")
}

// TestDesyncedFrameAllocatesWhatItReads: a desynced stream whose next
// header claims a maxFrameLen payload, then ends 100 bytes later, must
// fail having allocated about what it read, not the gigabyte claimed.
func TestDesyncedFrameAllocatesWhatItReads(t *testing.T) {
	stream := make([]byte, 108)
	binary.LittleEndian.PutUint32(stream, maxFrameLen)
	for i := 8; i < len(stream); i++ {
		stream[i] = byte(i)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a torn frame claiming maxFrameLen was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("reading a 108-byte stream allocated %d bytes", n)
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
	if err := wal.WriteFrame(bw, append(message(msgHello, 1, 2, 0), 0)); err != nil {
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
// multi-op transaction commits) against a primary with two followers —
// one clean, one behind a fault-injecting dialer — plus a mid-run
// checkpoint, and requires both followers to converge bit-identically
// with gapless logs. CI runs this under -race.
func TestReplicationSoak(t *testing.T) {
	writes := 60
	if testing.Short() {
		writes = 15
	}
	pdir := t.TempDir()
	scfg := primaryCfg(pdir)
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
	// Sever every other connection of the faulty follower. Its first
	// connection also carries the start: hello, welcome and the
	// snapshot frame of the bootstrap checkpoint. Its budget starts
	// past them, so the cut lands on the live stream.
	ckpt, err := os.Stat(server.CheckpointPath(pdir))
	if err != nil {
		t.Fatal(err)
	}
	start := 26 + 18 + 17 + ckpt.Size() // the hello, welcome and snapshot frames
	fcfg := followerCfg(t.TempDir(), addr)
	fcfg.Dial = faultnet.Dialer(func(i int) faultnet.Plan {
		if i%2 == 0 {
			budget := 400 + int64(i+1)*37%1600
			if i == 0 {
				budget += start
			}
			return faultnet.Plan{SeverAfter: budget}
		}
		return faultnet.Plan{}
	})
	faulty, err := StartFollower(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	base := faulty.Info().Reconnects

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
	if got := faulty.Info().Reconnects; got <= base {
		t.Fatalf("faulty follower: %d reconnects, %d of them at start; no fault reached the stream", got, base)
	}
}

// Server returns the underlying server.
func (p *Primary) Server() *server.Server { return p.srv }

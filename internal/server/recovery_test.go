package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xixa/internal/persist"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// durableCfg is the recovery tests' base config: SyncOff keeps the
// tests fast — an in-process "crash" (abandoning the server without
// Close or checkpoint) only needs commits flushed to the OS, which
// every policy guarantees.
func durableCfg(dir string) Config {
	return Config{WALDir: dir, SyncPolicy: wal.SyncOff, BuildAfter: 1, DropAfter: 10}
}

func bootstrapFixture(n int) func() (*storage.Database, error) {
	return func() (*storage.Database, error) { return fixtureDB(n), nil }
}

// dbBytes serializes a server's database and catalog — the
// bit-identity oracle of the recovery tests.
func dbBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, s.DB(), s.Catalog().Definitions()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustExec(t *testing.T, sess *Session, raw string) {
	t.Helper()
	if _, err := sess.Execute(raw); err != nil {
		t.Fatalf("execute %q: %v", raw, err)
	}
}

func insertStmt(sym string, yield int) string {
	return fmt.Sprintf(`insert into SECURITY value <Security><Symbol>%s</Symbol><Yield>%d.5</Yield><SecInfo><StockInformation><Sector>Recovered</Sector></StockInformation></SecInfo></Security>`, sym, yield%9)
}

// TestRecoverCrashMidBurst is the durability acceptance test: a server
// killed mid-burst — no graceful snapshot, the WAL is all that
// survives — recovers via checkpoint + tail replay with the database,
// the index catalog, and every query's results bit-identical to the
// committed pre-crash state.
func TestRecoverCrashMidBurst(t *testing.T) {
	dir := t.TempDir()
	srv, info, err := Recover(durableCfg(dir), bootstrapFixture(300))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Bootstrapped {
		t.Fatalf("fresh dir not bootstrapped: %+v", info)
	}

	// Queries to capture a workload, then one tuning round so the
	// catalog holds online-built indexes whose create records are in
	// the WAL (BuildAfter=1 materializes immediately).
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustExec(t, sess, pointQuery(i%300))
	}
	rep, err := srv.TuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Built) == 0 {
		t.Fatal("tuning round built no indexes; the index-create replay path is untested")
	}

	// Concurrent mutation burst: 4 writers, inserts/updates/deletes.
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
			for i := 0; i < 15; i++ {
				sym := fmt.Sprintf("CR%d%03d", w, i)
				for _, raw := range []string{
					insertStmt(sym, i),
					fmt.Sprintf(`update SECURITY set Yield = %d.75 where /Security[Symbol="%s"]`, i%7, sym),
				} {
					if _, err := ws.Execute(raw); err != nil && err != ErrOverloaded {
						errCh <- err
						return
					}
				}
				if i%3 == 0 {
					if _, err := ws.Execute(fmt.Sprintf(`delete from SECURITY where /Security[Symbol="%s"]`, sym)); err != nil && err != ErrOverloaded {
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

	// The committed pre-crash state, and each query's results on it.
	want := dbBytes(t, srv)
	wantDefs := srv.Catalog().Definitions()
	queries := []string{pointQuery(7), pointQuery(123), sectorQuery("Tech"), sectorQuery("Recovered")}
	wantRefs := make([]string, len(queries))
	for i, q := range queries {
		res, err := sess.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		wantRefs[i] = refsKey(res.Refs)
	}
	// Crash: no Close, no snapshot — the server is simply abandoned.

	srv2, info2, err := Recover(durableCfg(dir), bootstrapFixture(300))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info2.Bootstrapped {
		t.Fatal("recovery bootstrapped instead of replaying")
	}
	if info2.Replayed == 0 {
		t.Fatal("recovery replayed nothing; the burst was lost")
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatalf("recovered database not bit-identical: %d vs %d bytes", len(got), len(want))
	}
	gotDefs := srv2.Catalog().Definitions()
	if len(gotDefs) != len(wantDefs) {
		t.Fatalf("recovered catalog has %d defs, want %d", len(gotDefs), len(wantDefs))
	}
	for i := range wantDefs {
		if gotDefs[i].Key() != wantDefs[i].Key() {
			t.Fatalf("recovered def %d = %s, want %s", i, gotDefs[i], wantDefs[i])
		}
	}
	if info2.IndexesRebuilt == 0 {
		t.Fatal("no indexes rebuilt on recovery")
	}
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := sess2.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if refsKey(res.Refs) != wantRefs[i] {
			t.Fatalf("query %d results differ after recovery", i)
		}
	}
}

// TestRecoverKeepsCheckpointStamp: a checkpoint holding more documents
// than its stamp — one 12-insert transaction commits under stamp 1 —
// must reload at exactly that stamp. Loading it one stamp per document
// came back at watermark 12, so the next commit took stamp 13 and stamps
// 2-12 never appeared in the log. A later restart and a point-in-time
// restore past the checkpoint both land on stamp 1 plus the replayed
// commit.
func TestRecoverKeepsCheckpointStamp(t *testing.T) {
	dir := t.TempDir()
	cfg := restoreCfg(dir)
	srv, _, err := Recover(cfg, bootstrapFixture(0))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := tx.Execute(insertStmt(fmt.Sprintf("CS%03d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: the server is abandoned.

	srv2, _, err := Recover(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := srv2.DB().Watermark(); w != 1 {
		t.Fatalf("recovered at watermark %d, want the checkpoint's stamp 1", w)
	}
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess2, insertStmt("CSAFTER", 1))
	if w := srv2.DB().Watermark(); w != 2 {
		t.Fatalf("first commit after restart took stamp %d, want 2", w)
	}
	want, tip := dbBytes(t, srv2), srv2.WAL().LastLSN()
	srv2.Close()

	srv3, _, err := Recover(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if w := srv3.DB().Watermark(); w != 2 || !bytes.Equal(dbBytes(t, srv3), want) {
		t.Fatalf("second restart: watermark %d (want 2), image identical %v", w, bytes.Equal(dbBytes(t, srv3), want))
	}
	res, err := RestoreToLSN(dir, cfg.ArchiveDir, tip)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, res.DB, res.Defs); err != nil {
		t.Fatal(err)
	}
	if w := res.DB.Watermark(); w != 2 || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("restore past the checkpoint: watermark %d (want 2), image identical %v", w, bytes.Equal(buf.Bytes(), want))
	}
}

// TestRecoverTornFinalRecord tears the WAL's final record (the
// canonical crash-mid-append wreckage): recovery must keep every
// statement before the tear and the daemon must keep accepting
// commits afterwards.
func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(50))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("TORN%03d", i), i))
	}
	want := dbBytes(t, srv) // state before the final, soon-torn insert
	mustExec(t, sess, insertStmt("TORN999", 3))
	// Crash, then tear the last record: chop bytes off the log tail.
	walPath := filepath.Join(dir, walLogFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !info.Torn {
		t.Fatal("torn tail not reported")
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("recovery past the tear is not bit-identical to the pre-tear state")
	}
	// The log heals: new commits append and survive the next recovery.
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess2, insertStmt("HEAL001", 1))
	wantHealed := dbBytes(t, srv2)

	srv3, info3, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if info3.Torn {
		t.Fatal("healed log still reports a tear")
	}
	if got := dbBytes(t, srv3); !bytes.Equal(got, wantHealed) {
		t.Fatal("post-heal recovery not bit-identical")
	}
}

// TestRecoverUpdatePairing exercises the atomic replace record: an
// update must recover into the same insertion-order position, or the
// serialized database diverges.
func TestRecoverUpdatePairing(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(20))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Update documents in the middle of the table: naive
	// delete+reinsert replay would move them to the end.
	for _, sym := range []string{"S00003", "S00007", "S00011"} {
		mustExec(t, sess, fmt.Sprintf(`update SECURITY set Yield = 9.25 where /Security[Symbol="%s"]`, sym))
	}
	want := dbBytes(t, srv)

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info.Replayed == 0 {
		t.Fatal("updates not replayed")
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("update replay does not preserve document positions")
	}
}

// TestCheckpointBoundsReplayAndWarmStartsCapture: a checkpoint
// truncates the log, stamps the snapshot with its LSN, and carries the
// capture sidecar; recovery replays only the tail and warm-starts the
// tuner's workload.
func TestCheckpointBoundsReplayAndWarmStartsCapture(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(100))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("PRE%03d", i), i))
		mustExec(t, sess, pointQuery(i))
	}
	preLSN := srv.WAL().LastLSN()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := srv.WAL().SizeBytes(); got > 64 {
		t.Fatalf("WAL not truncated by checkpoint: %d bytes", got)
	}
	wantCapture := srv.Capture().Export()
	if len(wantCapture) == 0 {
		t.Fatal("no captured workload to persist")
	}
	// Tail past the checkpoint.
	for i := 0; i < 5; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("POST%02d", i), i))
	}
	want := dbBytes(t, srv)

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info.CheckpointLSN != preLSN {
		t.Fatalf("checkpoint LSN = %d, want %d", info.CheckpointLSN, preLSN)
	}
	if info.Replayed != 5 {
		t.Fatalf("replayed %d records, want exactly the 5-insert tail", info.Replayed)
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("checkpoint+tail recovery not bit-identical")
	}
	if info.CaptureRestored != len(wantCapture) {
		t.Fatalf("capture restored %d entries, want %d", info.CaptureRestored, len(wantCapture))
	}
	gotCapture := srv2.Capture().Export()
	if len(gotCapture) != len(wantCapture) {
		t.Fatalf("capture export lengths differ: %d vs %d", len(gotCapture), len(wantCapture))
	}
	for i := range wantCapture {
		if gotCapture[i] != wantCapture[i] {
			t.Fatalf("capture entry %d = %+v, want %+v", i, gotCapture[i], wantCapture[i])
		}
	}
}

// TestAutoCheckpointFromTuneLoop: the autonomous loop's ticker writes
// a checkpoint once the WAL passes the size threshold.
func TestAutoCheckpointFromTuneLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.TuneInterval = 10 * time.Millisecond
	cfg.CheckpointBytes = 1 // every round checkpoints
	srv, _, err := Recover(cfg, bootstrapFixture(50))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	checkpointed := make(chan struct{})
	var once sync.Once
	srv.StartAutoTune(func(rep *TuneReport, err error) {
		if err != nil {
			t.Errorf("tune: %v", err)
			return
		}
		if rep.Checkpointed {
			once.Do(func() { close(checkpointed) })
		}
	})
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("AUTO%04d", i), i))
		select {
		case <-checkpointed:
			return
		case <-deadline:
			t.Fatal("no automatic checkpoint within 5s")
		default:
		}
	}
}

// TestGroupCommitUnderServer runs the full stack under SyncAlways with
// concurrent writers — the group-commit path — and checks recovery.
func TestGroupCommitUnderServer(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SyncPolicy = wal.SyncAlways
	srv, _, err := Recover(cfg, bootstrapFixture(50))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := srv.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer ws.Close()
			for i := 0; i < 10; i++ {
				if _, err := ws.Execute(insertStmt(fmt.Sprintf("GC%d%03d", w, i), i)); err != nil && err != ErrOverloaded {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := dbBytes(t, srv)

	srv2, _, err := Recover(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("group-committed burst not bit-identical after recovery")
	}
}

// TestWALCommitSurfacesFailure: once the log's backing file fails, a
// mutating statement must report the commit error instead of claiming
// durability.
func TestWALCommitSurfacesFailure(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SyncPolicy = wal.SyncAlways
	srv, _, err := Recover(cfg, bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Closing the WAL out from under the server stands in for a dead
	// disk: appends and commits must fail loudly.
	srv.WAL().Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(insertStmt("FAIL001", 1)); err == nil {
		t.Fatal("mutation claimed success with a dead WAL")
	}
	// Queries are unaffected: durability failures must not take down
	// the read path.
	if _, err := sess.Execute(pointQuery(1)); err != nil {
		t.Fatalf("query failed after WAL death: %v", err)
	}
}

// TestRecoverStmtParity replays a serial statement tape through a
// durable server with a mid-tape crash+recover, and through a plain
// in-memory server, and demands identical final databases — the
// "recovered equals never-crashed" framing of the acceptance
// criteria.
func TestRecoverStmtParity(t *testing.T) {
	tape := make([]string, 0, 60)
	for i := 0; i < 20; i++ {
		sym := fmt.Sprintf("TP%04d", i)
		tape = append(tape, insertStmt(sym, i))
		if i%2 == 0 {
			tape = append(tape, fmt.Sprintf(`update SECURITY set Yield = %d.25 where /Security[Symbol="%s"]`, i%5, sym))
		}
		if i%5 == 3 {
			tape = append(tape, fmt.Sprintf(`delete from SECURITY where /Security[Symbol="%s"]`, sym))
		}
	}

	// Reference: never-crashed in-memory run.
	ref := New(fixtureDB(30), Config{})
	defer ref.Close()
	refSess, err := ref.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range tape {
		mustExec(t, refSess, raw)
	}
	var refBuf bytes.Buffer
	if err := persist.SaveDatabase(&refBuf, ref.DB(), nil); err != nil {
		t.Fatal(err)
	}

	// Durable run with a crash+recover in the middle of the tape.
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(30))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	half := len(tape) / 2
	for _, raw := range tape[:half] {
		mustExec(t, sess, raw)
	}
	// Crash (abandon), recover, finish the tape.
	srv2, _, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range tape[half:] {
		mustExec(t, sess2, raw)
	}
	var gotBuf bytes.Buffer
	if err := persist.SaveDatabase(&gotBuf, srv2.DB(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), refBuf.Bytes()) {
		t.Fatal("crashed+recovered run diverges from the never-crashed reference")
	}
}

// TestStatementsParseable guards the test fixtures themselves.
func TestRecoveryFixtureStatementsParse(t *testing.T) {
	for _, raw := range []string{
		insertStmt("X", 1),
		`update SECURITY set Yield = 1.25 where /Security[Symbol="X"]`,
		`delete from SECURITY where /Security[Symbol="X"]`,
	} {
		if _, err := xquery.Parse(raw); err != nil {
			t.Fatalf("fixture %q: %v", raw, err)
		}
	}
}

// TestRecoverTornReplaceKeepsPreImage tears the WAL so an update's
// RecDocReplace record is the torn one: recovery must keep the
// committed pre-image — logging the update as remove+insert pairs
// would instead delete the document, a state that never existed.
func TestRecoverTornReplaceKeepsPreImage(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want := dbBytes(t, srv) // the committed state: pre-update
	mustExec(t, sess, `update SECURITY set Yield = 8.75 where /Security[Symbol="S00004"]`)
	walPath := filepath.Join(dir, walLogFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear into the final (replace) record.
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !info.Torn {
		t.Fatal("tear not detected")
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("torn replace did not recover to the committed pre-image")
	}
	tbl, err := srv2.DB().Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(4); !ok {
		t.Fatal("document deleted by a torn update — the replace record was not atomic")
	}
}

// TestRecoverRefusesMissingCheckpoint: a WAL whose startLSN proves a
// checkpoint existed must not recover without it.
func TestRecoverRefusesMissingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, insertStmt("CHK001", 1))
	if err := srv.Checkpoint(); err != nil { // advances the WAL's startLSN
		t.Fatal(err)
	}
	srv.Close()
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(durableCfg(dir), nil); err == nil {
		t.Fatal("recovery without the checkpoint the WAL depends on must fail loudly")
	}
}

// TestRecoverLostWALSequencesPastCheckpoint: if wal.log is lost but
// the checkpoint survives, recovery must succeed AND must never
// re-issue LSNs the checkpoint covers — otherwise commits after the
// restart would be silently skipped by the NEXT recovery.
func TestRecoverLostWALSequencesPastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("SEQ%03d", i), i))
	}
	if err := srv.Checkpoint(); err != nil { // stamped LSN > 0
		t.Fatal(err)
	}
	srv.Close()
	if err := os.Remove(filepath.Join(dir, walLogFile)); err != nil {
		t.Fatal(err)
	}

	srv2, _, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatalf("recovery with intact checkpoint but lost WAL must succeed: %v", err)
	}
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess2, insertStmt("SEQNEW", 1))
	want := dbBytes(t, srv2)
	// Crash again: the fresh commit must survive the next recovery,
	// which it only does if its LSN was issued past the checkpoint's.
	srv3, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if info.Replayed != 1 {
		t.Fatalf("replayed %d records, want the 1 post-restart insert", info.Replayed)
	}
	if got := dbBytes(t, srv3); !bytes.Equal(got, want) {
		t.Fatal("commit after WAL loss was skipped by the next recovery")
	}
}

// TestRecoverCorruptSidecarDegrades: a corrupt capture sidecar must
// not block recovery — it is a warm-start cache, not data.
func TestRecoverCorruptSidecarDegrades(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, pointQuery(1))
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	capPath := filepath.Join(dir, captureFile)
	raw, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(capPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatalf("corrupt sidecar blocked recovery: %v", err)
	}
	defer srv2.Close()
	if info.CaptureError == nil {
		t.Fatal("corrupt sidecar not reported")
	}
	if info.CaptureRestored != 0 || srv2.Capture().Len() != 0 {
		t.Fatal("corrupt sidecar partially restored")
	}
}

// TestRecoverRefusesMissingCheckpointAtStartZero: the refusal must
// also fire before the first explicit checkpoint advances startLSN —
// any WAL records at all prove the (initial) checkpoint existed.
func TestRecoverRefusesMissingCheckpointAtStartZero(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, insertStmt("CHK002", 1)) // records at startLSN 0
	srv.Close()
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(durableCfg(dir), bootstrapFixture(10)); err == nil {
		t.Fatal("recovery with WAL records but no checkpoint must fail loudly")
	}
}

// TestRecoverRejectsUnstampedCommit: every commit carries a stamp of at
// least 1, so a stamp-0 bare document record or commit record is a log
// from before commit stamps, or corruption. Replay must refuse it by
// LSN — dropping it as a "duplicate" of an applied stamp would lose the
// write silently — while an unterminated frame is discarded whatever
// its records carry.
func TestRecoverRejectsUnstampedCommit(t *testing.T) {
	ins := func(stamp uint64) []byte {
		doc := secDoc("UNSTAMPED", "Recovered", 1)
		doc.DocID = 1000
		p, err := wal.EncodeDocInsert("SECURITY", doc, stamp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name     string
		payloads [][]byte
		wantErr  string // "" = replay succeeds and discards the frame
	}{
		{"bare record", [][]byte{ins(0)}, "unstamped commit at LSN 1"},
		{"committed frame", [][]byte{wal.EncodeTxnBegin(7), ins(0), wal.EncodeTxnCommit(7, 0)}, "unstamped commit at LSN 3"},
		{"unterminated frame", [][]byte{wal.EncodeTxnBegin(7), ins(0)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := storage.NewDatabase()
			tbl := db.MustCreateTable("SECURITY")
			a := NewApplier(db, nil, 0, 0)
			var err error
			for i, p := range tc.payloads {
				if err = a.Apply(record(t, uint64(i+1), p)); err != nil {
					break
				}
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if !a.FrameOpen() || a.CommittedLSN() != 0 {
					t.Fatalf("FrameOpen=%v CommittedLSN=%d, want an open frame and nothing committed", a.FrameOpen(), a.CommittedLSN())
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("replay error = %v, want one naming %q", err, tc.wantErr)
			}
			if tbl.DocCount() != 0 {
				t.Fatalf("unstamped records published %d documents", tbl.DocCount())
			}
		})
	}

	// End to end: the same bare record behind a real checkpoint fails
	// Recover instead of resurfacing as a document.
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(5))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l, _, err := wal.Open(WALPath(dir), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendTxn([][]byte{ins(0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if srv2, _, err := Recover(durableCfg(dir), nil); err == nil {
		srv2.Close()
		t.Fatal("Recover accepted an unstamped commit")
	} else if !strings.Contains(err.Error(), "unstamped commit at LSN") {
		t.Fatalf("Recover error = %v, want the unstamped-commit refusal", err)
	}
}

// TestRecoverReplaysIndexDrop covers the replay of an index *drop*
// record, on both redo paths that see it. A durable server builds two
// indexes and drops one through the tuner's apply path, inserts a
// document both patterns match, and is abandoned without a checkpoint:
// Recover must come back with exactly the surviving definition, its
// online index equal to a cold build, and RestoreToLSN must see two
// definitions just before the drop record and one at it.
func TestRecoverReplaysIndexDrop(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(40))
	if err != nil {
		t.Fatal(err)
	}
	def := func(pattern string) xindex.Definition {
		pat, err := xpath.ParsePattern(pattern)
		if err != nil {
			t.Fatal(err)
		}
		return xindex.Definition{Table: "SECURITY", Pattern: pat, Type: xpath.StringVal}
	}
	keep, gone := def("/Security/Symbol"), def("/Security/SecInfo/*/Sector")

	apply := func(build, drop []xindex.Definition) {
		t.Helper()
		srv.tuner.Lock()
		defer srv.tuner.Unlock()
		built, dropped, err := srv.applyTune(build, drop)
		if err != nil {
			t.Fatal(err)
		}
		if len(built) != len(build) || len(dropped) != len(drop) {
			t.Fatalf("applyTune built %d dropped %d, want %d and %d", len(built), len(dropped), len(build), len(drop))
		}
	}
	apply([]xindex.Definition{keep, gone}, nil)
	apply(nil, []xindex.Definition{gone})
	dropLSN := srv.WAL().LastLSN()

	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, insertStmt("DROPPED", 3))
	want := dbBytes(t, srv)
	// Crash: no Close, no checkpoint — the drop record is replayed, not
	// folded into a snapshot.

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info.IndexesRebuilt != 1 || !strings.Contains(info.String(), "1 indexes rebuilt") {
		t.Fatalf("recovery reports %q (%d indexes rebuilt), want 1", info, info.IndexesRebuilt)
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("recovered database and catalog not bit-identical to the pre-crash image")
	}
	defs := srv2.Catalog().Definitions()
	if len(defs) != 1 || defs[0].Key() != keep.Key() {
		t.Fatalf("recovered catalog = %v, want exactly %s", defs, keep)
	}
	tbl, err := srv2.DB().Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	online, _ := srv2.Catalog().Get(keep)
	cold, err := xindex.Build(tbl, keep)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := indexEntries(online), indexEntries(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered online index has %d entries, cold build %d (or they differ)", len(got), len(want))
	}

	for _, tc := range []struct {
		target uint64
		defs   int
	}{{dropLSN - 1, 2}, {dropLSN, 1}} {
		res, err := RestoreToLSN(dir, "", tc.target)
		if err != nil {
			t.Fatalf("RestoreToLSN(%d): %v", tc.target, err)
		}
		if len(res.Defs) != tc.defs {
			t.Fatalf("RestoreToLSN(%d) holds %d definitions, want %d", tc.target, len(res.Defs), tc.defs)
		}
	}
}

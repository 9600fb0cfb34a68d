package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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
	if err := wal.SaveCheckpoint(&buf, s.DB(), s.Catalog().Definitions(), 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayTo is the recovery tests' independent oracle: the image at
// target rebuilt from dir's checkpoint plus the log's records through
// target, applied by a fresh Applier — no server, no index builds.
// Opening the log only writes to it when its tail is torn, so dir may
// belong to a live or abandoned server.
func replayTo(t *testing.T, dir string, target uint64) (*storage.Database, []xindex.Definition) {
	t.Helper()
	db, defs, lsn, stamp, err := wal.LoadCheckpointFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if lsn > target {
		t.Fatalf("replay to LSN %d: the checkpoint is already at %d", target, lsn)
	}
	l, res, err := wal.Open(WALPath(dir), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := NewApplier(db, defs, lsn, stamp)
	for _, rec := range res.Records {
		if rec.LSN > target {
			break
		}
		if err := a.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.AppliedLSN() != target {
		t.Fatalf("replay to LSN %d: history ends at %d", target, a.AppliedLSN())
	}
	return db, a.Defs()
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
// 2-12 never appeared in the log. A later restart and a replay of the
// checkpoint plus the log past it both land on stamp 1 plus the
// replayed commit.
func TestRecoverKeepsCheckpointStamp(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
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
	db, defs := replayTo(t, dir, tip)
	var buf bytes.Buffer
	if err := wal.SaveCheckpoint(&buf, db, defs, 0, 0); err != nil {
		t.Fatal(err)
	}
	if w := db.Watermark(); w != 2 || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("replay past the checkpoint: watermark %d (want 2), image identical %v", w, bytes.Equal(buf.Bytes(), want))
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

// TestCheckpointWarmStart checkpoints a tuned server and asserts the
// recovered one comes up with the catalog materialized and serving
// index plans immediately: the indexes rebuild from the checkpoint's
// definitions, not from replayed log records.
func TestCheckpointWarmStart(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(150))
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("no index built before the checkpoint")
	}
	wantDefs := srv.Catalog().Definitions()
	wantRes, err := sess.Execute(pointQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	restored, info, err := Recover(Config{WALDir: dir, SyncPolicy: wal.SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if info.Replayed != 0 || info.IndexesRebuilt != len(wantDefs) {
		t.Fatalf("recovery replayed %d records and rebuilt %d indexes, want 0 and %d", info.Replayed, info.IndexesRebuilt, len(wantDefs))
	}
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

// TestAutoCheckpointWithoutTuner: a durable primary checkpoints once
// commits grow its WAL past CheckpointBytes, with the tuning loop off
// (TuneInterval 0, how the benchmark runs every daemon): the log stays
// bounded, and a restart replays only the tail since the last
// checkpoint into the same image. 200 inserts write ~26 KB of log. A
// replica starts checkpointing when it is promoted.
func TestAutoCheckpointWithoutTuner(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.TuneInterval = 0
	cfg.CheckpointBytes = 4 << 10
	const inserts = 200
	// fill commits the inserts and waits for the checkpointer to catch
	// up: the log is then below the threshold and starts past from.
	fill := func(srv *Server, prefix string, from uint64) {
		t.Helper()
		srv.StartAutoTune(nil) // a no-op at TuneInterval 0
		sess, err := srv.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < inserts; i++ {
			mustExec(t, sess, insertStmt(fmt.Sprintf("%s%04d", prefix, i), i))
		}
		l := srv.WAL()
		deadline := time.Now().Add(10 * time.Second)
		for l.SizeBytes() >= cfg.CheckpointBytes {
			if time.Now().After(deadline) {
				t.Fatalf("WAL still %d bytes after 10s, threshold %d", l.SizeBytes(), cfg.CheckpointBytes)
			}
			time.Sleep(time.Millisecond)
		}
		if l.StartLSN() <= from {
			t.Fatalf("no automatic checkpoint: the WAL still starts at LSN %d", l.StartLSN())
		}
		if n := srv.met.ckptErrors.Value(); n != 0 {
			t.Fatalf("%d automatic checkpoints failed", n)
		}
	}

	srv, _, err := Recover(cfg, bootstrapFixture(50))
	if err != nil {
		t.Fatal(err)
	}
	fill(srv, "AUTO", 0)
	want := dbBytes(t, srv)
	srv.Close() // no shutdown checkpoint: the restart replays the tail

	rcfg := cfg
	rcfg.Replica = true
	rep, info, err := Recover(rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if info.CheckpointLSN == 0 || info.Replayed >= inserts {
		t.Fatalf("restart from checkpoint LSN %d replayed %d records, want a later checkpoint and fewer than %d", info.CheckpointLSN, info.Replayed, inserts)
	}
	if !bytes.Equal(dbBytes(t, rep), want) {
		t.Fatal("recovered image differs from the one before the restart")
	}
	rep.Promote()
	fill(rep, "PROM", rep.WAL().StartLSN())
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
	if err := wal.SaveCheckpoint(&refBuf, ref.DB(), nil, 0, 0); err != nil {
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
	if err := wal.SaveCheckpoint(&gotBuf, srv2.DB(), nil, 0, 0); err != nil {
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
// commit record (one replace op) is the torn one: recovery must keep
// the committed pre-image — logging the update as remove+insert pairs
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
// least 1, so a commit record stamped 0 — one op or several — is a log
// from before commit stamps, or corruption. Replay must refuse it by
// LSN: dropping it as a "duplicate" of an applied stamp would lose the
// write silently.
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
	multi := func(stamp uint64) []byte {
		ops := make([]storage.TxOp, 3)
		for i := range ops {
			doc := secDoc(fmt.Sprintf("UNSTAMPED%d", i), "Recovered", 1)
			doc.DocID = int64(1000 + i)
			ops[i] = storage.TxOp{Table: "SECURITY", Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc}
		}
		p, err := wal.EncodeCommit(ops, stamp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"bare record", ins(0)},
		{"multi-op commit", multi(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := storage.NewDatabase()
			tbl := db.MustCreateTable("SECURITY")
			a := NewApplier(db, nil, 0, 0)
			if err := a.Apply(record(t, 1, tc.payload)); err == nil || !strings.Contains(err.Error(), "unstamped commit at LSN 1") {
				t.Fatalf("replay error = %v, want one naming %q", err, "unstamped commit at LSN 1")
			}
			if tbl.DocCount() != 0 {
				t.Fatalf("unstamped records published %d documents", tbl.DocCount())
			}
		})
	}

	// End to end: the same one-op commit behind a real checkpoint fails
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

// appendTornCommit appends one multi-op commit at stamp — an insert into
// SECURITY per symbol — to the log at path, lets it reach the file, and
// chops its last byte: the wreckage of a crash in the middle of writing
// the record. It returns the LSN the record took.
func appendTornCommit(t *testing.T, l *wal.Log, path string, stamp uint64, syms ...string) uint64 {
	t.Helper()
	ops := make([]storage.TxOp, len(syms))
	for i, sym := range syms {
		doc := secDoc(sym, "Recovered", 1)
		doc.DocID = int64(900000 + i)
		ops[i] = storage.TxOp{Table: "SECURITY", Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc}
	}
	p, err := wal.EncodeCommit(ops, stamp)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTxn([][]byte{p})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestRecoverRefusesOldLogVersion: a log in the earlier format (magic
// XIXAWAL1, multi-op commits framed by begin/commit records) fails
// recovery by name — it is never read as torn or empty, which would
// silently drop its history.
func TestRecoverRefusesOldLogVersion(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(5))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	var head [20]byte
	copy(head[:8], "XIXAWAL1")
	binary.LittleEndian.PutUint32(head[16:], crc32.Checksum(head[:16], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(WALPath(dir), head[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if srv2, _, err := Recover(durableCfg(dir), nil); err == nil {
		srv2.Close()
		t.Fatal("Recover accepted an XIXAWAL1 log")
	} else if !strings.Contains(err.Error(), "unsupported log version") {
		t.Fatalf("Recover error = %v, want the unsupported-version refusal", err)
	}
}

// TestRecoverReplaysIndexDrop covers the replay of an index *drop*
// record, on both redo paths that see it. A durable server builds two
// indexes and drops one through the tuner's apply path, inserts a
// document both patterns match, and is abandoned without a checkpoint:
// Recover must come back with exactly the surviving definition, its
// online index equal to a cold build, and a replay of the log must see
// two definitions just before the drop record and one at it.
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
		if _, defs := replayTo(t, dir, tc.target); len(defs) != tc.defs {
			t.Fatalf("replay to LSN %d holds %d definitions, want %d", tc.target, len(defs), tc.defs)
		}
	}
}

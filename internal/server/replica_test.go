package server

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"xixa/internal/persist"
	"xixa/internal/wal"
)

// TestRecoverAfterTornCommit: a multi-op commit torn at the tail of
// the log is dropped whole — recovery reports the tear, the log ends at
// the committed LSN, and the image is the committed prefix — and a
// commit made after that recovery survives the next one.
func TestRecoverAfterTornCommit(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, insertStmt("DF000", 1))
	committed := srv.WAL().LastLSN()
	prefix := dbBytes(t, srv)
	stamp := srv.DB().Watermark() + 1
	srv.Close()

	l, _, err := wal.Open(WALPath(dir), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if lsn := appendTornCommit(t, l, WALPath(dir), stamp, "DFLOST0", "DFLOST1"); lsn != committed+1 {
		t.Fatalf("torn commit at LSN %d, want %d", lsn, committed+1)
	}
	l.Close()

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("recovery did not report the torn commit")
	}
	if got := srv2.WAL().LastLSN(); got != committed {
		t.Fatalf("torn commit not truncated: log at LSN %d, committed prefix ends at %d", got, committed)
	}
	if !bytes.Equal(dbBytes(t, srv2), prefix) {
		t.Fatal("recovered image is not the committed prefix")
	}

	// A commit after recovery lands at the next LSN and survives the
	// next recovery.
	sess2, err := srv2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess2, insertStmt("DF001", 2))
	if got := srv2.WAL().LastLSN(); got != committed+1 {
		t.Fatalf("post-recovery commit at LSN %d, want %d", got, committed+1)
	}
	want := dbBytes(t, srv2)
	srv2.Close()

	srv3, info3, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if info3.Torn {
		t.Fatal("second recovery saw a tear that should be gone")
	}
	if !bytes.Equal(dbBytes(t, srv3), want) {
		t.Fatal("commit after torn-commit recovery was lost on the next recovery")
	}
}

// TestReplicaReadOnlyAndPromote covers the replica write fence: a
// server recovered with Config.Replica refuses every mutation path —
// statements, explicit transactions, tuning — while serving reads, and
// Promote flips it into a fully writable, durably logging primary.
func TestReplicaReadOnlyAndPromote(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(20))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, insertStmt("RP000", 1))
	srv.Close()

	cfg := durableCfg(dir)
	cfg.Replica = true
	rep, _, err := Recover(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if !rep.ReadOnly() {
		t.Fatal("replica server is not read-only")
	}

	rsess, err := rep.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsess.Execute(insertStmt("RP001", 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica insert: got %v, want ErrReadOnly", err)
	}
	if _, err := rsess.Execute(pointQuery(3)); err != nil {
		t.Fatalf("replica query refused: %v", err)
	}
	if _, err := rep.TuneOnce(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica TuneOnce: got %v, want ErrReadOnly", err)
	}

	// Explicit transactions: mutations refused, snapshot reads commit.
	tx, err := rsess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Execute(insertStmt("RP002", 3)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica txn insert: got %v, want ErrReadOnly", err)
	}
	if _, err := tx.Execute(pointQuery(4)); err != nil {
		t.Fatalf("replica txn query refused: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only txn commit on replica: %v", err)
	}

	// Promotion: writes flow, and they reach the log — recover the
	// directory again and the post-promotion commit must be there.
	rep.Promote()
	if rep.ReadOnly() {
		t.Fatal("Promote left the server read-only")
	}
	mustExec(t, rsess, insertStmt("RP003", 4))
	want := dbBytes(t, rep)
	rep.Close()

	again, _, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !bytes.Equal(dbBytes(t, again), want) {
		t.Fatal("post-promotion commit did not survive recovery")
	}
}

// TestFencedServerRefusesWrites: fencing is permanent and beats every
// mutation path, while reads keep serving.
func TestFencedServerRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	srv.Fence()
	if _, err := sess.Execute(insertStmt("FN000", 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced insert: got %v, want ErrFenced", err)
	}
	if _, err := sess.Execute(pointQuery(2)); err != nil {
		t.Fatalf("fenced query refused: %v", err)
	}
	// Promote must not resurrect a fenced server.
	srv.Promote()
	if _, err := sess.Execute(insertStmt("FN001", 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced insert after Promote: got %v, want ErrFenced", err)
	}
}

// restoreCfg configures a server whose WAL rolls small segments into an
// archive, so checkpoints preserve rather than destroy history.
func restoreCfg(dir string) Config {
	cfg := durableCfg(dir)
	cfg.SegmentBytes = 4096
	cfg.ArchiveDir = filepath.Join(dir, "archive")
	return cfg
}

// TestRestoreToLSN drives the point-in-time restore acceptance
// criterion: with WAL archiving on, RestoreToLSN reproduces the exact
// image at every committed LSN — across segment rolls and a checkpoint
// that truncated the live log — and a multi-op transaction takes
// exactly one LSN, so there is no target inside it.
func TestRestoreToLSN(t *testing.T) {
	dir := t.TempDir()
	cfg := restoreCfg(dir)
	srv, _, err := Recover(cfg, bootstrapFixture(25))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	// One committed image per insert: LSN -> expected serialized state.
	type point struct {
		lsn  uint64
		snap []byte
	}
	var points []point
	record := func() {
		points = append(points, point{srv.WAL().LastLSN(), dbBytes(t, srv)})
	}
	record() // the bootstrap image at the initial checkpoint LSN
	for i := 0; i < 12; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("PT%03d", i), i))
		record()
		if i == 5 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A three-insert transaction: one commit record, one LSN.
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tx.Execute(insertStmt(fmt.Sprintf("PTX%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	preTxn := points[len(points)-1]
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	record()
	final := points[len(points)-1]
	srv.Close()
	if final.lsn != preTxn.lsn+1 {
		t.Fatalf("3-insert transaction spans LSNs (%d, %d], want exactly one", preTxn.lsn, final.lsn)
	}

	for _, p := range points {
		res, err := RestoreToLSN(dir, cfg.ArchiveDir, p.lsn)
		if err != nil {
			t.Fatalf("RestoreToLSN(%d): %v", p.lsn, err)
		}
		var buf bytes.Buffer
		if err := persist.SaveDatabase(&buf, res.DB, res.Defs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), p.snap) {
			t.Fatalf("restored image at LSN %d is not bit-identical to the live image", p.lsn)
		}
	}

	// Beyond history: a loud error, not a silent partial image.
	if _, err := RestoreToLSN(dir, cfg.ArchiveDir, final.lsn+10); err == nil {
		t.Fatal("restore beyond history succeeded")
	}
}

// TestCheckpointArchivesHistory: with an archive configured, a
// checkpoint preserves the truncated WAL segments and an LSN-stamped
// checkpoint copy, and a cursor can still stream from genesis.
func TestCheckpointArchivesHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := restoreCfg(dir)
	srv, _, err := Recover(cfg, bootstrapFixture(10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustExec(t, sess, insertStmt(fmt.Sprintf("AR%03d", i), i))
	}
	tip := srv.WAL().LastLSN()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	chks, err := persist.ListArchivedCheckpoints(cfg.ArchiveDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(chks) == 0 {
		t.Fatal("checkpoint archived no LSN-stamped copy")
	}
	if got := chks[len(chks)-1].LSN; got != tip {
		t.Fatalf("archived checkpoint stamped %d, want %d", got, tip)
	}
	segs, err := wal.ListSegmentFiles(cfg.ArchiveDir, walLogFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("checkpoint archived no WAL segments")
	}
	if got := srv.WAL().EarliestLSN(); got != 0 {
		t.Fatalf("EarliestLSN with archive = %d, want 0", got)
	}

	// The full history replays from the archive: every LSN from genesis
	// to the tip, exactly once.
	cur := srv.WAL().Cursor(0)
	defer cur.Close()
	next := uint64(1)
	for {
		lsn, _, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if lsn == 0 {
			break
		}
		if lsn != next {
			t.Fatalf("cursor produced LSN %d, want %d", lsn, next)
		}
		next++
	}
	if next != tip+1 {
		t.Fatalf("cursor stopped at LSN %d, want to reach %d", next-1, tip)
	}
}

// ReadOnly reports that the server is a not-yet-promoted replica.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

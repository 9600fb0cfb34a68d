package server

import (
	"bytes"
	"errors"
	"testing"

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

// ReadOnly reports that the server is a not-yet-promoted replica.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
)

// Durability directory layout: one checkpoint (an LSN-stamped image in
// WAL records, wal.SaveCheckpoint, plus the capture sidecar) and the
// write-ahead log tail past that checkpoint's LSN.
const (
	checkpointFile = "checkpoint.db"
	captureFile    = "checkpoint.capture"
	walLogFile     = "wal.log"
)

// ErrNoWAL reports a durability operation on a server without a WAL.
var ErrNoWAL = errors.New("server: no WAL attached (start with Recover and Config.WALDir)")

// CheckpointPath locates the checkpoint file inside a durability
// directory; WALPath locates the active log. Exported for the
// replication layer, which ships these files between nodes.
func CheckpointPath(walDir string) string { return filepath.Join(walDir, checkpointFile) }

// WALPath returns the active write-ahead log path inside walDir.
func WALPath(walDir string) string { return filepath.Join(walDir, walLogFile) }

// RecoverInfo reports what Recover found and did.
type RecoverInfo struct {
	// CheckpointLSN is the WAL position of the loaded checkpoint
	// (0 when no checkpoint existed).
	CheckpointLSN uint64
	// Replayed is the number of WAL records applied past the
	// checkpoint.
	Replayed int
	// Torn reports that the WAL ended in a torn or corrupt record,
	// which was truncated away — the expected wreckage of a crash
	// mid-append, not an error.
	Torn bool
	// Bootstrapped reports that no durable state existed and the
	// bootstrap callback seeded the database.
	Bootstrapped bool
	// IndexesRebuilt is the number of catalog indexes rebuilt online
	// from the recovered definitions.
	IndexesRebuilt int
	// CaptureRestored is the number of workload-capture entries
	// warm-started from the checkpoint's sidecar.
	CaptureRestored int
	// CaptureError, when non-nil, reports a sidecar that existed but
	// would not load (corruption). Recovery proceeds with a cold
	// capture — the sidecar is a warm-start cache, not data — and the
	// caller decides whether to log it.
	CaptureError error
}

func (i *RecoverInfo) String() string {
	if i.Bootstrapped {
		return "recover: bootstrapped fresh database (initial checkpoint written)"
	}
	s := fmt.Sprintf("recover: checkpoint LSN %d, %d WAL records replayed, %d indexes rebuilt, %d capture entries restored",
		i.CheckpointLSN, i.Replayed, i.IndexesRebuilt, i.CaptureRestored)
	if i.Torn {
		s += " (torn final record truncated)"
	}
	if i.CaptureError != nil {
		s += fmt.Sprintf(" (capture sidecar unreadable, starting cold: %v)", i.CaptureError)
	}
	return s
}

// Recover builds a durable server from cfg.WALDir: it loads the newest
// checkpoint if one exists, replays the WAL tail past the checkpoint's
// LSN (tolerating a torn final record: replay stops at the first CRC
// mismatch and the tear is truncated away), rebuilds the recovered
// index catalog online, warm-starts the workload capture from the
// checkpoint's sidecar, and hands the server the open log before the
// first session can open. If the directory holds no durable state,
// bootstrap (may be nil) seeds the database and an initial checkpoint
// is written before serving, so the seed data itself is never at risk.
//
// This is the daemon's one start path: a graceful restart and a
// crash recovery differ only in how many records the tail holds.
func Recover(cfg Config, bootstrap func() (*storage.Database, error)) (*Server, *RecoverInfo, error) {
	cfg = cfg.WithDefaults()
	if cfg.WALDir == "" {
		return nil, nil, errors.New("server: Recover requires Config.WALDir")
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, nil, err
	}
	info := &RecoverInfo{}

	// Load the checkpoint, if any. Only a clean "does not exist" may
	// be treated as fresh state — any other stat failure could be
	// hiding a checkpoint, and recovering without it loses data.
	var db *storage.Database
	var defs []xindex.Definition
	var checkpointStamp uint64
	chkPath := filepath.Join(cfg.WALDir, checkpointFile)
	hadCheckpoint := false
	if _, err := os.Stat(chkPath); err == nil {
		db, defs, info.CheckpointLSN, checkpointStamp, err = wal.LoadCheckpointFile(chkPath)
		if err != nil {
			return nil, nil, fmt.Errorf("server: loading checkpoint: %w", err)
		}
		hadCheckpoint = true
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: checking checkpoint: %w", err)
	}

	// Open the log and scan its intact records.
	l, scanned, err := wal.Open(filepath.Join(cfg.WALDir, walLogFile), wal.Options{Policy: cfg.SyncPolicy})
	if err != nil {
		return nil, nil, err
	}
	info.Torn = scanned.Torn
	fail := func(err error) (*Server, *RecoverInfo, error) {
		l.Close()
		return nil, nil, err
	}

	// Any durable state implies a checkpoint exists: Recover always
	// writes the initial one before a single session can open, so a
	// WAL with a non-zero start OR any records at all proves a
	// checkpoint was written and is now missing (deleted, restored
	// from an older backup). Recovering anyway would silently rebuild
	// a gutted database from the tail alone — and then cement the
	// loss with a fresh checkpoint. Refuse loudly.
	if !hadCheckpoint && (l.StartLSN() > 0 || len(scanned.Records) > 0) {
		return fail(fmt.Errorf("server: WAL holds history (start LSN %d, %d records) but no checkpoint found in %s — refusing to recover a partial database", l.StartLSN(), len(scanned.Records), cfg.WALDir))
	}
	if hadCheckpoint && info.CheckpointLSN < l.StartLSN() {
		return fail(fmt.Errorf("server: checkpoint is stamped LSN %d but the WAL already starts at %d — the checkpoint predates a later truncation and records are missing", info.CheckpointLSN, l.StartLSN()))
	}
	// A checkpoint beyond the log's last LSN is recoverable — the
	// snapshot already contains everything through its stamp, and any
	// leftover records are skipped — but the log's sequence must be
	// advanced past the stamp first: a recreated-from-scratch log
	// would otherwise re-issue LSNs the checkpoint covers, and the
	// NEXT recovery would silently skip those freshly committed
	// records.
	if hadCheckpoint && info.CheckpointLSN > l.LastLSN() {
		if err := l.Truncate(info.CheckpointLSN); err != nil {
			return fail(err)
		}
	}

	switch {
	case db == nil && bootstrap != nil:
		// Fresh directory (the guard above proved the WAL is empty).
		if db, err = bootstrap(); err != nil {
			return fail(err)
		}
		info.Bootstrapped = true
	case db == nil:
		db = storage.NewDatabase()
	}

	// Redo the tail past the checkpoint through the shared applier,
	// then flush: commits parked above a stamp gap (the gap's commit
	// died with the log) still publish, in stamp order.
	applier := NewApplier(db, defs, info.CheckpointLSN, checkpointStamp)
	for i := range scanned.Records {
		if scanned.Records[i].LSN <= info.CheckpointLSN {
			continue
		}
		if err := applier.Apply(scanned.Records[i]); err != nil {
			return fail(err)
		}
	}
	if err := applier.Flush(); err != nil {
		return fail(err)
	}
	defs = applier.Defs()
	info.Replayed = applier.OpsApplied()

	s := New(db, cfg)
	buffered, peak := applier.ReorderStats()
	s.reorderBuffered.Store(buffered)
	s.reorderPeak.Store(peak)
	for _, def := range defs {
		if _, err := s.mgr.EnsureBuilt(def); err != nil {
			return fail(err)
		}
	}
	info.IndexesRebuilt = len(defs)

	// The log attaches only now: replay applied its records straight to
	// the tables, and no session can open before Recover returns. From
	// here a record enters the log only through a commit (txnPrepare), a
	// tuning round (applyTune) or, on a replica, the follower's stream.
	s.wal = l
	s.walDir = cfg.WALDir
	l.InstrumentWith(s.met.reg)

	// The capture sidecar is a warm-start cache, not data: a corrupt
	// one must not block recovery of an otherwise-healthy server. The
	// tuner just relearns the workload from live traffic.
	if states, err := wal.LoadCaptureFile(filepath.Join(cfg.WALDir, captureFile)); err == nil {
		info.CaptureRestored = s.capture.Import(states)
	} else if !os.IsNotExist(err) {
		info.CaptureError = err
	}

	if !hadCheckpoint {
		// First run (or crash before the initial checkpoint): write one
		// now so the bootstrap data is durable before traffic arrives.
		if err := s.Checkpoint(); err != nil {
			return fail(err)
		}
	}
	if !cfg.Replica {
		s.startCheckpointer()
	}
	return s, info, nil
}

func addDef(defs []xindex.Definition, def xindex.Definition) []xindex.Definition {
	key := def.Key()
	for _, d := range defs {
		if d.Key() == key {
			return defs
		}
	}
	return append(defs, def)
}

func removeDef(defs []xindex.Definition, def xindex.Definition) []xindex.Definition {
	key := def.Key()
	for i, d := range defs {
		if d.Key() == key {
			return append(defs[:i], defs[i+1:]...)
		}
	}
	return defs
}

// WAL returns the server's write-ahead log (nil without durability).
func (s *Server) WAL() *wal.Log { return s.wal }

// Checkpoint writes an LSN-stamped snapshot of the database and
// catalog plus the workload-capture sidecar, then truncates the WAL:
// replay time is bounded by the traffic since the last checkpoint, not
// since process start. It serializes with the tuning loop (index
// lifecycle changes land entirely before or after the checkpoint) and
// holds the commit gate exclusively while the snapshot streams out, so
// transaction commits pause; queries and statement execution proceed.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return ErrNoWAL
	}
	s.tuner.Lock()
	defer s.tuner.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint under an already-held tuner lock (the
// autonomous loop checkpoints from its own tick).
func (s *Server) checkpointLocked() error {
	s.commitGate.Lock()
	defer s.commitGate.Unlock()
	// Both held: no transaction can publish (commitGate) and no index
	// lifecycle changes (the tuner lock) can append, so LastLSN is exactly the
	// state the snapshot captures.
	lsn := s.wal.LastLSN()
	// With the commit gate held, no commit is mid-publish: the watermark
	// equals the allocator and stamps issued after the checkpoint are
	// strictly greater — exactly what the applier's duplicate-stamp
	// dedup relies on at the next recovery.
	if err := wal.SaveCheckpointFile(filepath.Join(s.walDir, checkpointFile), s.db, s.cat.Definitions(), lsn, s.db.Watermark()); err != nil {
		return err
	}
	if err := wal.SaveCaptureFile(filepath.Join(s.walDir, captureFile), s.capture.Export()); err != nil {
		return err
	}
	if err := s.wal.Truncate(lsn); err != nil {
		return err
	}
	s.met.checkpoints.Inc()
	return nil
}

// startCheckpointer runs a durable primary's automatic checkpoint: a
// commit that leaves the WAL at least CheckpointBytes long wakes it
// (wal.Log.NotifyAtSize), and it checkpoints under the tuner lock, as
// Checkpoint does. It does not depend on the tuning loop, so a server
// that never tunes still bounds its log and its replay. A follower runs
// none: its stream's applier owns the database, so no checkpoint can
// know which logged records the image holds (it starts one on
// Promote).
func (s *Server) startCheckpointer() {
	full := s.wal.NotifyAtSize(s.cfg.CheckpointBytes)
	stop, done := make(chan struct{}), make(chan struct{})
	s.tuner.Lock()
	s.ckptStop, s.ckptDone = stop, done
	s.tuner.Unlock()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-full:
			}
			s.tuner.Lock()
			// A signal can outlive the growth it reported: a checkpoint
			// since then has emptied the log.
			if s.wal.SizeBytes() >= s.cfg.CheckpointBytes {
				if err := s.checkpointLocked(); err != nil {
					// The log stays whole; the next commit retries.
					s.met.ckptErrors.Inc()
				}
			}
			s.tuner.Unlock()
		}
	}()
}

// stopCheckpointer stops the automatic checkpointer, if one runs, and
// waits for a checkpoint in progress to finish.
func (s *Server) stopCheckpointer() {
	s.tuner.Lock()
	stop, done := s.ckptStop, s.ckptDone
	s.ckptStop, s.ckptDone = nil, nil
	s.tuner.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

package server

import (
	"fmt"
	"sort"

	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
)

// Applier applies a WAL record stream to a database incrementally,
// enforcing the transaction framing: document records between a
// RecTxnBegin and its matching RecTxnCommit buffer and publish only
// when the commit record arrives, all at once, and a frame that never
// commits leaves no trace. It is the one redo path shared by crash
// recovery (Recover feeds it the scanned tail), replication followers
// (which feed it records as they stream in), and point-in-time restore
// (RestoreToLSN feeds it archived history up to the target).
//
// Because commits on disjoint tables append to the log outside any
// shared lock, log order and commit-stamp order may differ. The
// applier restores stamp order with a reorder buffer: a completed
// frame whose stamp is not yet next in sequence parks until the gap
// below it closes, then the whole run drains in stamp order. Frames
// that share a table are appended under that table's commit lock, so
// they can never arrive stamp-inverted — only commuting
// (disjoint-table) frames park. Every commit carries a stamp of at
// least 1; a committed frame or bare document record stamped 0 is a
// replay error, while an unterminated frame is discarded whatever its
// records carry.
//
// Records must arrive in LSN order with no gaps; a record at or below
// AppliedLSN is skipped silently (the dedup a follower needs when it
// re-streams from its last durable position). An Applier is not safe
// for concurrent use — callers serialize Apply against their own
// reads. Callers must Flush before reading final state: completed
// frames above a stamp gap (whose lower stamp died with the log) are
// still parked until then.
type Applier struct {
	db   *storage.Database
	defs []xindex.Definition
	// onIndex, when set, materializes index lifecycle changes live as
	// they apply (followers build indexes as the records arrive);
	// without it the definition list just folds the changes in and the
	// caller rebuilds at the end (recovery, restore).
	onIndex func(create bool, def xindex.Definition) error

	applied   uint64 // LSN of the last record consumed
	committed uint64 // LSN of the last record consumed at a frame boundary
	ops       int    // document/index operations actually applied

	pending    []wal.Record // buffered ops of the open transaction frame
	inTxn      bool
	txnID      uint64
	frameStart uint64 // LSN of the open frame's begin record

	nextStamp uint64                  // the stamp the next in-order frame must carry
	reorder   map[uint64][]wal.Record // parked complete frames by stamp
	reorderN  uint64                  // frames that ever parked
	reorderPk uint64                  // max frames parked at once
}

// NewApplier starts an applier over db whose state already reflects
// every record through afterLSN (a checkpoint's position, or zero for
// an empty database) and every commit stamp through afterStamp (the
// checkpoint's watermark). defs is the index definition list as of
// afterLSN; the applier folds create/drop records into its own copy.
func NewApplier(db *storage.Database, defs []xindex.Definition, afterLSN, afterStamp uint64) *Applier {
	return &Applier{
		db:        db,
		defs:      append([]xindex.Definition(nil), defs...),
		applied:   afterLSN,
		committed: afterLSN,
		nextStamp: afterStamp + 1,
		reorder:   make(map[uint64][]wal.Record),
	}
}

// SetIndexHook installs a callback invoked as index create (true) and
// drop (false) records apply, letting a live follower materialize the
// catalog change immediately instead of at the end of replay.
func (a *Applier) SetIndexHook(h func(create bool, def xindex.Definition) error) {
	a.onIndex = h
}

// AppliedLSN is the LSN of the last record consumed — including
// records buffered inside a still-open transaction frame.
func (a *Applier) AppliedLSN() uint64 { return a.applied }

// CommittedLSN is the LSN of the last record consumed at a frame
// boundary: equal to AppliedLSN when no frame is open, and the LSN
// just before the open frame's begin record while one is buffering.
// Frames parked in the reorder buffer count as committed — they are
// guaranteed to publish at Flush — so this is the position a promotion
// (which flushes first) truncates the log back to.
func (a *Applier) CommittedLSN() uint64 { return a.committed }

// FrameOpen reports that a transaction frame is buffering — a begin
// record arrived with no matching commit yet.
func (a *Applier) FrameOpen() bool { return a.inTxn }

// OpsApplied is the number of document and index operations published.
func (a *Applier) OpsApplied() int { return a.ops }

// ReorderStats reports how many completed frames arrived ahead of a
// stamp gap and parked in the reorder buffer, and the largest number
// parked at once.
func (a *Applier) ReorderStats() (buffered, peak uint64) { return a.reorderN, a.reorderPk }

// Defs returns the index definition list with every applied
// create/drop folded in.
func (a *Applier) Defs() []xindex.Definition { return a.defs }

// Apply consumes one record. Records at or below AppliedLSN are
// skipped; a gap in the sequence is an error (the caller lost or
// reordered records).
func (a *Applier) Apply(rec wal.Record) error {
	if rec.LSN <= a.applied {
		return nil
	}
	if rec.LSN != a.applied+1 {
		return fmt.Errorf("server: apply LSN %d after %d: records missing", rec.LSN, a.applied)
	}
	a.applied = rec.LSN
	switch rec.Kind {
	case wal.RecTxnBegin:
		if a.inTxn {
			return fmt.Errorf("server: replay LSN %d: txn-begin %d inside open txn %d", rec.LSN, rec.TxnID, a.txnID)
		}
		a.inTxn, a.txnID, a.frameStart = true, rec.TxnID, rec.LSN
		a.pending = a.pending[:0]
	case wal.RecTxnCommit:
		if !a.inTxn || rec.TxnID != a.txnID {
			return fmt.Errorf("server: replay LSN %d: txn-commit %d without matching begin", rec.LSN, rec.TxnID)
		}
		frame := append([]wal.Record(nil), a.pending...)
		a.inTxn = false
		a.pending = a.pending[:0]
		if err := a.enqueueFrame(rec.Stamp, rec.LSN, frame); err != nil {
			return err
		}
		a.committed = rec.LSN
	case wal.RecDocInsert, wal.RecDocReplace, wal.RecDocRemove:
		if a.inTxn {
			a.pending = append(a.pending, rec)
			return nil
		}
		// A bare document record is a self-framing single-op commit.
		if err := a.enqueueFrame(rec.Stamp, rec.LSN, []wal.Record{rec}); err != nil {
			return err
		}
		a.committed = rec.LSN
	default:
		if a.inTxn {
			return fmt.Errorf("server: replay LSN %d: record kind %v inside txn frame", rec.LSN, rec.Kind)
		}
		if err := a.applyIndex(&rec); err != nil {
			return err
		}
		a.committed = rec.LSN
	}
	return nil
}

// enqueueFrame routes one completed frame: it applies when its stamp
// is next in sequence (then drains any parked successors) and parks
// otherwise. Stamps below the sequence are duplicates of
// already-applied commits and are dropped — except 0, which no commit
// ever carried: dropping it as a "duplicate" would lose the write
// silently.
func (a *Applier) enqueueFrame(stamp, lsn uint64, frame []wal.Record) error {
	if stamp == 0 {
		return fmt.Errorf("server: unstamped commit at LSN %d: log predates commit stamps or is corrupt", lsn)
	}
	if stamp < a.nextStamp {
		return nil
	}
	if stamp > a.nextStamp {
		a.reorder[stamp] = frame
		a.reorderN++
		if n := uint64(len(a.reorder)); n > a.reorderPk {
			a.reorderPk = n
		}
		return nil
	}
	if err := a.applyFrame(stamp, lsn, frame); err != nil {
		return err
	}
	a.nextStamp = stamp + 1
	for {
		next, ok := a.reorder[a.nextStamp]
		if !ok {
			return nil
		}
		delete(a.reorder, a.nextStamp)
		if err := a.applyFrame(a.nextStamp, 0, next); err != nil {
			return err
		}
		a.nextStamp++
	}
}

// Flush publishes every frame still parked in the reorder buffer, in
// ascending stamp order. A gap in the stamps means the missing commit
// died with the log before its records were appended; since frames
// sharing a table can never arrive stamp-inverted, the missing commit
// commutes with everything parked above it and skipping the gap yields
// a consistent history. Callers must Flush before reading final state
// (end of recovery and restore, promotion).
func (a *Applier) Flush() error {
	if len(a.reorder) == 0 {
		return nil
	}
	stamps := make([]uint64, 0, len(a.reorder))
	for s := range a.reorder {
		stamps = append(stamps, s)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	for _, s := range stamps {
		frame := a.reorder[s]
		delete(a.reorder, s)
		if err := a.applyFrame(s, 0, frame); err != nil {
			return err
		}
		if s >= a.nextStamp {
			a.nextStamp = s + 1
		}
	}
	return nil
}

func (a *Applier) table(name string) (*storage.Table, error) {
	if tbl, err := a.db.Table(name); err == nil {
		return tbl, nil
	}
	return a.db.CreateTable(name)
}

// applyFrame publishes one committed frame at its recorded stamp via
// storage.ApplyCommitted: document IDs are explicit, no validation
// runs, and the database's stamp allocator advances to the stamp so
// post-recovery commits continue the sequence.
func (a *Applier) applyFrame(stamp, lsn uint64, frame []wal.Record) error {
	ops := make([]storage.TxOp, 0, len(frame))
	for i := range frame {
		rec := &frame[i]
		// Auto-create the table first: replay may precede any checkpoint
		// that knew about it.
		if _, err := a.table(rec.Table); err != nil {
			return err
		}
		switch rec.Kind {
		case wal.RecDocInsert:
			ops = append(ops, storage.TxOp{Table: rec.Table, Kind: storage.TxInsert, DocID: rec.DocID, Doc: rec.Doc})
		case wal.RecDocReplace:
			ops = append(ops, storage.TxOp{Table: rec.Table, Kind: storage.TxReplace, DocID: rec.DocID, Doc: rec.Doc})
		case wal.RecDocRemove:
			ops = append(ops, storage.TxOp{Table: rec.Table, Kind: storage.TxDelete, DocID: rec.DocID})
		default:
			return fmt.Errorf("server: replay LSN %d: record kind %v inside txn frame", rec.LSN, rec.Kind)
		}
	}
	if err := a.db.ApplyCommitted(stamp, ops); err != nil {
		if lsn != 0 {
			return fmt.Errorf("server: replay LSN %d: %w", lsn, err)
		}
		return fmt.Errorf("server: replay stamp %d: %w", stamp, err)
	}
	a.ops += len(ops)
	return nil
}

// applyIndex publishes one index lifecycle record.
func (a *Applier) applyIndex(rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecIndexCreate:
		a.defs = addDef(a.defs, rec.Def)
		if a.onIndex != nil {
			if err := a.onIndex(true, rec.Def); err != nil {
				return err
			}
		}
	case wal.RecIndexDrop:
		a.defs = removeDef(a.defs, rec.Def)
		if a.onIndex != nil {
			if err := a.onIndex(false, rec.Def); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("server: replay LSN %d: unknown record kind %v", rec.LSN, rec.Kind)
	}
	a.ops++
	return nil
}

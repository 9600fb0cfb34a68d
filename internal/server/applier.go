package server

import (
	"fmt"
	"sort"

	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
)

// Applier applies a WAL record stream to a database incrementally.
// Every commit is one RecCommit record holding its whole write set, so
// a record applies atomically or, torn, not at all, and every LSN is a
// commit boundary. It is the one redo path shared by crash recovery
// (Recover feeds it the scanned tail) and replication followers (which
// feed it records as they stream in).
//
// Because commits on disjoint tables append to the log outside any
// shared lock, log order and commit-stamp order may differ. The
// applier restores stamp order with a reorder buffer: a commit whose
// stamp is not yet next in sequence parks until the gap below it
// closes, then the whole run drains in stamp order. Commits that share
// a table are appended under that table's commit lock, so they can
// never arrive stamp-inverted — only commuting (disjoint-table)
// commits park. Every commit carries a stamp of at least 1; a commit
// stamped 0 is a replay error.
//
// Records must arrive in LSN order with no gaps; a record at or below
// the last one consumed is skipped silently (the dedup a follower needs when it
// re-streams from its last durable position). An Applier is not safe
// for concurrent use — callers serialize Apply against their own
// reads. Callers must Flush before reading final state: commits above
// a stamp gap (whose lower stamp died with the log) are still parked
// until then.
type Applier struct {
	db   *storage.Database
	defs []xindex.Definition
	// onIndex, when set, materializes index lifecycle changes live as
	// they apply (followers build indexes as the records arrive);
	// without it the definition list just folds the changes in and the
	// caller rebuilds at the end (recovery).
	onIndex func(create bool, def xindex.Definition) error

	applied uint64 // LSN of the last record consumed
	ops     int    // document/index operations actually applied

	nextStamp uint64                    // the stamp the next in-order commit must carry
	reorder   map[uint64][]storage.TxOp // parked commits' write sets by stamp
	reorderN  uint64                    // commits that ever parked
	reorderPk uint64                    // max commits parked at once
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
		nextStamp: afterStamp + 1,
		reorder:   make(map[uint64][]storage.TxOp),
	}
}

// SetIndexHook installs a callback invoked as index create (true) and
// drop (false) records apply, letting a live follower materialize the
// catalog change immediately instead of at the end of replay.
func (a *Applier) SetIndexHook(h func(create bool, def xindex.Definition) error) {
	a.onIndex = h
}

// OpsApplied is the number of document and index operations published.
func (a *Applier) OpsApplied() int { return a.ops }

// ReorderStats reports how many commits arrived ahead of a stamp gap
// and parked in the reorder buffer, and the largest number parked at
// once.
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
	if rec.Kind == wal.RecCommit {
		return a.enqueue(rec.Stamp, rec.LSN, rec.Ops)
	}
	return a.applyIndex(&rec)
}

// enqueue routes one commit: it applies when its stamp is next in
// sequence (then drains any parked successors) and parks otherwise.
// Stamps below the sequence are duplicates of already-applied commits
// and are dropped — except 0, which no commit ever carried: dropping it
// as a "duplicate" would lose the write silently.
func (a *Applier) enqueue(stamp, lsn uint64, ops []storage.TxOp) error {
	if stamp == 0 {
		return fmt.Errorf("server: unstamped commit at LSN %d: log predates commit stamps or is corrupt", lsn)
	}
	if stamp < a.nextStamp {
		return nil
	}
	if stamp > a.nextStamp {
		a.reorder[stamp] = ops
		a.reorderN++
		if n := uint64(len(a.reorder)); n > a.reorderPk {
			a.reorderPk = n
		}
		return nil
	}
	if err := a.applyCommit(stamp, lsn, ops); err != nil {
		return err
	}
	a.nextStamp = stamp + 1
	for {
		next, ok := a.reorder[a.nextStamp]
		if !ok {
			return nil
		}
		delete(a.reorder, a.nextStamp)
		if err := a.applyCommit(a.nextStamp, 0, next); err != nil {
			return err
		}
		a.nextStamp++
	}
}

// Flush publishes every commit still parked in the reorder buffer, in
// ascending stamp order. A gap in the stamps means the missing commit
// died with the log before its record was appended; since commits
// sharing a table can never arrive stamp-inverted, the missing commit
// commutes with everything parked above it and skipping the gap yields
// a consistent history. Callers must Flush before reading final state
// (end of recovery, promotion).
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
		ops := a.reorder[s]
		delete(a.reorder, s)
		if err := a.applyCommit(s, 0, ops); err != nil {
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

// applyCommit publishes one commit's write set at its recorded stamp
// via storage.ApplyCommitted: document IDs are explicit, no validation
// runs, and the database's stamp allocator advances to the stamp so
// post-recovery commits continue the sequence.
func (a *Applier) applyCommit(stamp, lsn uint64, ops []storage.TxOp) error {
	for i := range ops {
		// Auto-create the table first: replay may precede any checkpoint
		// that knew about it.
		if _, err := a.table(ops[i].Table); err != nil {
			return err
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

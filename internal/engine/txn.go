// Transactional execution: a Txn runs statements against a pinned
// database snapshot plus a private write overlay, buffering mutations
// as storage.TxOp records instead of applying them. Commit hands the
// buffer to storage.CommitTx, which validates first-writer-wins and
// publishes the whole write set under one commit stamp; the catalog's
// indexes update themselves from the change feed as the write set
// applies, so the engine does no index upkeep of its own.
//
// Every statement is read this way — a plain query is a transaction
// that never writes, pinned at the watermark. The match phase goes
// through the plan interpreter (matchDocs): index plans run as
// version-aware scans filtered to the snapshot stamp (xindex.ScanAsOf)
// where every chosen index can answer as of it, and as a scan of the
// snapshot otherwise. Overlay writes (this transaction's uncommitted
// inserts/deletes/replacements) are layered over either route.
package engine

import (
	"errors"
	"fmt"
	"time"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// ErrTxnDone reports an operation on a committed or rolled-back
// transaction.
var ErrTxnDone = errors.New("engine: transaction already finished")

// overlay is a transaction's private view of one table's uncommitted
// writes, layered over the snapshot for read-your-own-writes.
type overlay struct {
	inserted []*xmltree.Document         // this txn's new docs (provisional negative IDs)
	deleted  map[int64]bool              // committed IDs this txn deleted
	replaced map[int64]*xmltree.Document // committed IDs this txn replaced -> post-image
}

// Txn is one transaction: a snapshot at a fixed commit stamp, a pinned
// catalog view, and buffered writes. It is not safe for concurrent use
// by multiple goroutines (one client, one transaction).
type Txn struct {
	eng      *Engine
	snap     *storage.Snapshot
	view     View
	writes   []storage.TxOp
	overlays map[string]*overlay // allocated by the first write
	provSeq  int64
	done     bool
}

// Begin opens a transaction: the database snapshot and the catalog
// configuration are pinned here and stay fixed until Commit or
// Rollback.
func (e *Engine) Begin() *Txn {
	return &Txn{eng: e, snap: e.db.PinSnapshot(), view: e.cat.View()}
}

func (tx *Txn) overlay(table string) *overlay {
	ov, ok := tx.overlays[table]
	if !ok {
		if tx.overlays == nil {
			tx.overlays = make(map[string]*overlay)
		}
		ov = &overlay{deleted: make(map[int64]bool), replaced: make(map[int64]*xmltree.Document)}
		tx.overlays[table] = ov
	}
	return ov
}

// current maps a committed document to what the transaction sees in
// its place: nil when it deleted the document, the post-image when it
// replaced it. A nil overlay (no writes to the table yet) maps every
// document to itself.
func (ov *overlay) current(d *xmltree.Document) *xmltree.Document {
	if ov == nil {
		return d
	}
	if ov.deleted[d.DocID] {
		return nil
	}
	if r, ok := ov.replaced[d.DocID]; ok {
		return r
	}
	return d
}

// Execute runs one statement inside the transaction: queries and match
// phases read the snapshot through the write overlay; mutations buffer
// into the write set. Nothing touches shared state until Commit.
func (tx *Txn) Execute(stmt *xquery.Statement) ([]xindex.Ref, Stats, error) {
	return tx.execute(stmt, nil, nil)
}

// ExecuteTraced is Execute with an optional trace attached (see
// Engine.ExecuteTraced); a nil qt makes it identical to Execute.
func (tx *Txn) ExecuteTraced(stmt *xquery.Statement, qt *obs.QueryTrace) ([]xindex.Ref, Stats, error) {
	return tx.execute(stmt, nil, qt)
}

// execute runs the statement's match phase (an insert has none, and so
// never calls the optimizer) and buffers the mutation over the matched
// documents. A nil plan is chosen by the interpreter.
func (tx *Txn) execute(stmt *xquery.Statement, plan *optimizer.Plan, qt *obs.QueryTrace) ([]xindex.Ref, Stats, error) {
	if tx.done {
		return nil, Stats{}, ErrTxnDone
	}
	start := time.Now()
	var refs []xindex.Ref
	var st Stats
	var err error
	switch stmt.Kind {
	case xquery.Insert:
		err = tx.runInsert(stmt, &st)
	case xquery.Query, xquery.Delete, xquery.Update:
		var tv *storage.TableView
		if tv, err = tx.snap.Table(stmt.Table); err != nil {
			break
		}
		var pass *matchPass
		pass, err = tx.matchDocs(stmt, plan, tv, &st, qt)
		if err != nil {
			break
		}
		switch stmt.Kind {
		case xquery.Query:
			refs = pass.refs
		case xquery.Delete:
			tx.runDelete(stmt, pass.docs, &st)
		case xquery.Update:
			tx.runUpdate(stmt, pass.docs, &st)
		}
	default:
		err = fmt.Errorf("engine: unsupported statement kind %v", stmt.Kind)
	}
	st.Elapsed = time.Since(start)
	return refs, st, err
}

func (tx *Txn) runInsert(stmt *xquery.Statement, st *Stats) error {
	if stmt.Doc == nil {
		return fmt.Errorf("engine: insert without document")
	}
	if _, err := tx.eng.db.Table(stmt.Table); err != nil {
		return err
	}
	// Each execution inserts a fresh copy so repeated executions of the
	// same statement behave like TPoX's insert stream.
	doc := cloneDoc(stmt.Doc)
	tx.provSeq--
	doc.DocID = tx.provSeq // provisional; the real ID arrives at commit
	ov := tx.overlay(stmt.Table)
	ov.inserted = append(ov.inserted, doc)
	tx.writes = append(tx.writes, storage.TxOp{
		Table: stmt.Table, Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc,
	})
	st.DocsModified++
	return nil
}

// dropProvisional unbuffers an uncommitted insert this transaction is
// deleting: the pending TxInsert write and the overlay entry both go.
func (tx *Txn) dropProvisional(table string, provID int64) {
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.Kind == storage.TxInsert && w.Table == table && w.DocID == provID {
			tx.writes = append(tx.writes[:i], tx.writes[i+1:]...)
			break
		}
	}
	ov := tx.overlay(table)
	for i, d := range ov.inserted {
		if d.DocID == provID {
			ov.inserted = append(ov.inserted[:i], ov.inserted[i+1:]...)
			break
		}
	}
}

func (tx *Txn) runDelete(stmt *xquery.Statement, docs []*xmltree.Document, st *Stats) {
	ov := tx.overlay(stmt.Table)
	for _, d := range docs {
		if d.DocID < 0 {
			tx.dropProvisional(stmt.Table, d.DocID)
		} else {
			ov.deleted[d.DocID] = true
			tx.writes = append(tx.writes, storage.TxOp{Table: stmt.Table, Kind: storage.TxDelete, DocID: d.DocID})
		}
		st.DocsModified++
	}
}

// runUpdate buffers a copy-on-write replacement of each matched
// document: the targeted leaves are rewritten in a clone and the
// pre-image is never mutated, so readers evaluating it concurrently see
// a consistent snapshot and change subscribers (statistics keeper,
// online indexes) get an immutable pre-image in the DocRemoved event.
func (tx *Txn) runUpdate(stmt *xquery.Statement, docs []*xmltree.Document, st *Stats) {
	ov := tx.overlay(stmt.Table)
	for _, d := range docs {
		targets := xpath.Eval(d, xpath.Concat(stmt.Match.StripPreds(), stmt.SetPath))
		if len(targets) == 0 {
			continue
		}
		newDoc := cloneDoc(d)
		for _, id := range targets {
			setNodeText(newDoc, id, stmt.SetValue)
		}
		newDoc.DocID = d.DocID
		if d.DocID < 0 {
			// Updating our own uncommitted insert: rewrite it in place
			// in the buffer; the commit logs only the final image.
			for i := range tx.writes {
				w := &tx.writes[i]
				if w.Kind == storage.TxInsert && w.Table == stmt.Table && w.DocID == d.DocID {
					w.Doc = newDoc
					break
				}
			}
			for i, od := range ov.inserted {
				if od.DocID == d.DocID {
					ov.inserted[i] = newDoc
					break
				}
			}
		} else {
			ov.replaced[d.DocID] = newDoc
			tx.writes = append(tx.writes, storage.TxOp{Table: stmt.Table, Kind: storage.TxReplace, DocID: d.DocID, Doc: newDoc})
		}
		st.DocsModified++
	}
}

// CommitInfo reports a successful commit.
type CommitInfo struct {
	// Stamp is the commit stamp the write set published under
	// (0 for an empty transaction).
	Stamp uint64
	// LogLSN is the last write-ahead log LSN of the transaction's
	// records (0 without a log or for an empty transaction); the
	// caller's group-commit fsync targets it.
	LogLSN uint64
}

// Commit publishes the transaction's write set atomically via
// storage.CommitTx. prepare, when non-nil, is the write-ahead log hook
// threaded through (see CommitTx). On storage.ErrConflict nothing was
// applied and the caller may retry on a fresh transaction. Either way
// the snapshot is released and the transaction is finished.
func (tx *Txn) Commit(prepare func([]storage.TxOp) (func(uint64) (uint64, error), error)) (CommitInfo, error) {
	if tx.done {
		return CommitInfo{}, ErrTxnDone
	}
	tx.done = true
	defer tx.snap.Release()
	// An empty write set (every plain query) commits trivially.
	stamp, logLSN, err := tx.eng.db.CommitTx(tx.snap.LSN(), tx.writes, prepare)
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{Stamp: stamp, LogLSN: logLSN}, nil
}

// Rollback discards the write set and releases the snapshot. Rolling
// back a finished transaction is a no-op.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.snap.Release()
}

package server

// Transaction management: every mutating statement runs as a
// snapshot-isolated transaction (engine.Txn over the storage layer's
// MVCC version chains), and sessions can open explicit multi-statement
// transactions with Begin. Commits validate first-writer-wins; the
// losing transaction aborts without side effects and — for the
// single-statement auto-commit path — retries on a fresh snapshot.
//
// Durability composes with MVCC here, and this is the one way a change
// reaches the log: commitTxn threads txnPrepare into engine.Txn.Commit
// as the storage layer's prepare hook. The hook encodes the whole write
// set into one WAL commit record before the commit stamp exists
// (document encoding is the expensive part), and the returned append
// closure receives the stamp, patches it into the payload
// (wal.PatchStamp), and appends it (wal.AppendTxn) while the commit
// holds its tables' commit locks — before the write set publishes.
// commitTxn then waits for the group fsync outside the commit gate.
// Commits on disjoint tables append concurrently, so log order and
// stamp order may differ; every commit record carries its stamp and
// replay (server.Applier) reorders commits back into stamp order — a
// serial replay of the log in stamp order reproduces the concurrent
// execution bit for bit. One record per commit makes a commit atomic
// in the log: the WAL's CRC tail scan drops a torn record whole.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"xixa/internal/engine"
	"xixa/internal/obs"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
)

// maxConflictRetries bounds automatic first-writer-wins retries of a
// single-statement transaction before the conflict surfaces to the
// client. Between retries the statement sleeps a full-jitter
// exponential backoff (uniform over (0, base<<attempt], capped):
// immediate retries under high contention re-collide in lockstep —
// eight writers on one hot document all re-validate, all lose but one,
// and all re-run together, burning CPU that the winner needs to get
// off the document — while the randomized, growing pause spreads the
// losers out so each round crowns a winner quickly.
const (
	maxConflictRetries  = 8
	conflictBackoffBase = 50 * time.Microsecond
	conflictBackoffMax  = 5 * time.Millisecond
)

// sleepConflictBackoff pauses before conflict retry number attempt+1,
// returning the time actually slept (sessions account cumulative
// backoff).
func sleepConflictBackoff(attempt int) time.Duration {
	ceil := conflictBackoffBase << uint(attempt)
	if ceil > conflictBackoffMax {
		ceil = conflictBackoffMax
	}
	d := time.Duration(rand.Int63n(int64(ceil))) + 1
	time.Sleep(d)
	return d
}

// ErrTxnFinished reports Execute/Commit on an already-finished
// explicit transaction.
var ErrTxnFinished = errors.New("server: transaction already finished")

// txnPrepare is the storage prepare hook: called after commit
// validation with document IDs assigned, before the write set
// publishes. Encoding happens here, before the commit stamp exists, so
// an unencodable or oversized write set fails without burning a stamp;
// the returned closure patches the allocated stamp into the payload
// and appends it (under the commit's table locks, so same-table
// records stay log-ordered by stamp).
func (s *Server) txnPrepare(ops []storage.TxOp) (func(stamp uint64) (uint64, error), error) {
	// The last line of defense for replica/fencing enforcement: no
	// write set may reach the log of a read-only or fenced server, even
	// through a path that skipped the statement-level check.
	if err := s.writable(); err != nil {
		return nil, err
	}
	payload, err := wal.EncodeCommit(ops, 0)
	if err != nil {
		return nil, err
	}
	return func(stamp uint64) (uint64, error) {
		wal.PatchStamp(payload, stamp)
		return s.wal.AppendTxn([][]byte{payload})
	}, nil
}

// commitTxn commits an engine transaction under the commit gate and,
// when durable, waits out the group fsync. It maintains the
// transaction counters; callers only add retry logic.
func (s *Server) commitTxn(tx *engine.Txn) (engine.CommitInfo, error) {
	var prep func([]storage.TxOp) (func(uint64) (uint64, error), error)
	if s.wal != nil {
		prep = s.txnPrepare
	}
	s.commitGate.RLock()
	info, err := tx.Commit(prep)
	s.commitGate.RUnlock()
	if err != nil {
		s.met.aborts.Inc()
		if errors.Is(err, storage.ErrConflict) {
			s.met.conflicts.Inc()
		}
		return info, err
	}
	s.met.commits.Inc()
	// The fsync wait happens outside the gate: writers behind this one
	// append their records meanwhile and ride the same group commit.
	if s.wal != nil && info.LogLSN > 0 {
		if cerr := s.wal.Commit(info.LogLSN); cerr != nil {
			return info, fmt.Errorf("server: wal commit: %w", cerr)
		}
	}
	return info, nil
}

// executeTxn runs one mutating statement as an auto-commit
// transaction, retrying on first-writer-wins conflicts with a fresh
// snapshot each time. When sess is non-nil, conflict retries and the
// backoff time slept between them are charged to the session's
// cumulative counters; the registry's retry/backoff counters always
// accumulate the identical values, so the two stay in exact agreement.
// A retried statement's trace (qt non-nil) accumulates one set of
// phase spans per attempt.
func (s *Server) executeTxn(stmt *xquery.Statement, sess *Session, qt *obs.QueryTrace) ([]xindex.Ref, engine.Stats, error) {
	for attempt := 0; ; attempt++ {
		tx := s.eng.Begin()
		refs, st, err := tx.ExecuteTraced(stmt, qt)
		if err != nil {
			tx.Rollback()
			s.met.aborts.Inc()
			return nil, st, err
		}
		var commitStart time.Time
		if qt != nil {
			commitStart = time.Now()
		}
		_, cerr := s.commitTxn(tx)
		if qt != nil {
			qt.Span("commit", time.Since(commitStart), 0)
		}
		if cerr == nil {
			return refs, st, nil
		}
		if errors.Is(cerr, storage.ErrConflict) && attempt < maxConflictRetries {
			slept := sleepConflictBackoff(attempt)
			s.met.retries.Inc()
			s.met.backoffNs.Add(uint64(slept.Nanoseconds()))
			if sess != nil {
				sess.mu.Lock()
				sess.retries++
				sess.backoff += slept
				sess.mu.Unlock()
			}
			continue
		}
		return nil, st, cerr
	}
}

// Txn is an explicit multi-statement transaction opened by
// Session.Begin: every statement sees the snapshot taken at Begin plus
// this transaction's own writes, and nothing is visible to others
// until Commit. Unlike the auto-commit path, a first-writer-wins
// conflict at Commit is returned to the client (storage.ErrConflict)
// instead of retried — the server cannot re-run client logic.
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	sess *Session
	tx   *engine.Txn
	done bool
}

// Begin opens an explicit transaction pinned to the current database
// snapshot and index configuration.
func (sess *Session) Begin() (*Txn, error) {
	if sess.srv.closed.Load() {
		return nil, ErrClosed
	}
	return &Txn{sess: sess, tx: sess.srv.eng.Begin()}, nil
}

// Execute parses and executes one statement inside the transaction
// under the server's admission control and statement accounting (the
// same path as Session.Execute). Mutations buffer in the transaction;
// queries see the snapshot plus the buffered writes.
func (t *Txn) Execute(raw string) (*Result, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	return t.sess.execute(raw, t.tx)
}

// Commit publishes the transaction atomically. On storage.ErrConflict
// nothing was applied; the client may re-run the transaction.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	_, err := t.sess.srv.commitTxn(t.tx)
	return err
}

// Rollback abandons the transaction. Rolling back a finished
// transaction is a no-op.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	t.tx.Rollback()
	t.sess.srv.met.aborts.Inc()
}

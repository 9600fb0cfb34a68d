// Multi-version concurrency control: the version dimension under the
// table substrate. Every committed mutation produces a new immutable
// version of the documents it touched, tagged with a commit stamp (the
// storage layer's commit LSN); a snapshot is nothing but a pinned
// stamp, and a reader at stamp S sees, for every document, the newest
// version committed at or below S. This is what lets the serving
// layer's writers run concurrently: a transaction executes against its
// snapshot, buffers writes, and commits through CommitTx, which
// validates first-writer-wins against the versions committed since the
// snapshot and applies the whole write set atomically.
//
// Commit pipeline (no database-wide critical section):
//
//  1. Stamps come from an atomic allocator (next.Add(1)) — disjoint
//     commits fetch stamps without sharing a lock.
//  2. Each commit applies its write set per table, under that table's
//     mu, while holding the written tables' commitMu set — commits on
//     disjoint tables publish fully concurrently.
//  3. Visibility advances by a low-water watermark: a finished commit
//     marks its stamp published, and the watermark rises over the
//     longest contiguous prefix of published stamps. A snapshot pins
//     the watermark, so it can never observe stamp S+1 without S —
//     half-published interleavings stay invisible.
//  4. CommitTx returns only once the watermark covers its stamp, after
//     releasing its locks: a commit that has been acknowledged is
//     visible to every snapshot pinned afterwards, so a client's next
//     transaction always sees its own previous one.
//
// Locking protocol (acquisition order, outermost first):
// table.commitMu (sorted by table name) -> table.mu -> {mvcc.pinMu,
// mvcc.pubMu} (leaf locks, never held together with each other).
//
//   - commitMu serializes committers per table: validation, commit-time
//     document ID assignment, WAL append, and apply all happen under
//     it, so the versions a transaction validated against cannot
//     change before its write set publishes, and — because the stamp
//     is allocated while commitMu is held — same-table log order
//     equals stamp order (only disjoint-table records may permute in
//     the log; the replay side reorders by stamp).
//   - pubMu guards the published-stamp set behind the watermark. It is
//     held for a map insert or a short watermark sweep, never across
//     an apply.
//   - pinMu guards the snapshot pin registry. Pins read the watermark
//     under pinMu, so the garbage-collection horizon (min pinned
//     stamp) can never race past a snapshot being pinned.
//
// Version chains prune opportunistically at each push: everything
// strictly below the newest version at or below the horizon is
// unreachable by any pinnable snapshot and is cut. With no snapshots
// pinned the horizon equals the watermark, so chains stay ~1 long and
// a delete's chain is swept entirely — plain single-writer table use
// pays no memory for the version dimension.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/obs"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// docVersion is one link of a document's version chain, newest first.
// A nil doc is a delete marker: the document was deleted by the commit
// that produced this version.
type docVersion struct {
	doc  *xmltree.Document
	lsn  uint64 // commit stamp that produced this version
	prev *docVersion
}

// mvccState is the commit-stamp allocator, publish watermark, and
// snapshot pin registry shared by every table of one database.
type mvccState struct {
	next      atomic.Uint64 // last allocated commit stamp
	watermark atomic.Uint64 // highest W with all stamps <= W published

	pubMu     sync.Mutex
	published map[uint64]bool // finished stamps above the watermark
	lagPeak   uint64          // max len(published) observed
	risen     *sync.Cond      // on pubMu; broadcast when the watermark rises

	publishNs atomic.Int64 // total ns from stamp allocation to publish

	// publishHist, when instrumented (Database.InstrumentWith), receives
	// each commit's allocation-to-publish latency in seconds.
	publishHist atomic.Pointer[obs.Histogram]

	pinMu sync.Mutex
	pins  map[uint64]int // pinned stamp -> refcount
}

func newMVCCState() *mvccState {
	mv := &mvccState{
		published: make(map[uint64]bool),
		pins:      make(map[uint64]int),
	}
	mv.risen = sync.NewCond(&mv.pubMu)
	return mv
}

// allocStamp hands out the next commit stamp. The caller must
// eventually finish() it (even on failure, as a no-op) or the
// watermark stalls at stamp-1 forever.
func (mv *mvccState) allocStamp() uint64 { return mv.next.Add(1) }

// finish marks a stamp fully published and advances the watermark over
// the contiguous prefix of published stamps. Stamps finishing out of
// order park in the published set until the gap below them closes.
func (mv *mvccState) finish(stamp uint64) {
	mv.pubMu.Lock()
	if stamp == mv.watermark.Load()+1 {
		w := stamp
		for mv.published[w+1] {
			delete(mv.published, w+1)
			w++
		}
		mv.watermark.Store(w)
		mv.risen.Broadcast()
	} else {
		mv.published[stamp] = true
		if n := uint64(len(mv.published)); n > mv.lagPeak {
			mv.lagPeak = n
		}
	}
	mv.pubMu.Unlock()
}

// advanceTo raises the allocator and watermark to at least stamp — the
// replay path (recovery, replication, checkpoint load), where stamps
// arrive pre-ordered from the log rather than from the allocator.
func (mv *mvccState) advanceTo(stamp uint64) {
	if stamp == 0 {
		return
	}
	for {
		cur := mv.next.Load()
		if cur >= stamp || mv.next.CompareAndSwap(cur, stamp) {
			break
		}
	}
	mv.pubMu.Lock()
	if stamp > mv.watermark.Load() {
		w := stamp
		for mv.published[w+1] {
			delete(mv.published, w+1)
			w++
		}
		for s := range mv.published {
			if s <= w {
				delete(mv.published, s)
			}
		}
		mv.watermark.Store(w)
		mv.risen.Broadcast()
	}
	mv.pubMu.Unlock()
}

// awaitVisible blocks until the watermark covers stamp: every commit
// with a smaller stamp has finished publishing, so a snapshot pinned
// from now on reads stamp's commit. Callers hold no table lock — the
// commits being waited for hold theirs already (stamps are allocated
// under the commit locks) and need nothing from the waiter.
func (mv *mvccState) awaitVisible(stamp uint64) {
	if mv.watermark.Load() >= stamp {
		return
	}
	mv.pubMu.Lock()
	for mv.watermark.Load() < stamp {
		mv.risen.Wait()
	}
	mv.pubMu.Unlock()
}

// pin registers a snapshot at the current watermark. Reading the
// watermark under pinMu makes pinning atomic against horizon
// computation: the pruner either sees this pin or computes a horizon
// no higher than the stamp this pin receives.
func (mv *mvccState) pin() uint64 {
	mv.pinMu.Lock()
	defer mv.pinMu.Unlock()
	s := mv.watermark.Load()
	mv.pins[s]++
	return s
}

func (mv *mvccState) unpin(s uint64) {
	mv.pinMu.Lock()
	defer mv.pinMu.Unlock()
	if n := mv.pins[s]; n > 1 {
		mv.pins[s] = n - 1
	} else {
		delete(mv.pins, s)
	}
}

// horizon is the garbage-collection floor: the smallest pinned stamp,
// or the watermark when nothing is pinned. Versions whose successors
// are all at or below the horizon can never be read again.
func (mv *mvccState) horizon() uint64 {
	mv.pinMu.Lock()
	defer mv.pinMu.Unlock()
	h := mv.watermark.Load()
	for s := range mv.pins {
		if s < h {
			h = s
		}
	}
	return h
}

// Watermark returns the highest commit stamp with every predecessor
// fully published — the stamp a snapshot pinned right now would read
// at.
func (db *Database) Watermark() uint64 { return db.mv.watermark.Load() }

// Snapshot is a pinned, immutable view of the whole database at one
// commit stamp. It must be Released when done or garbage collection
// stalls at its stamp.
type Snapshot struct {
	db       *Database
	lsn      uint64
	released atomic.Bool
}

// PinSnapshot pins the current committed state: every table read
// through the snapshot sees exactly the versions committed at or below
// its stamp, no matter what commits afterwards.
func (db *Database) PinSnapshot() *Snapshot {
	return &Snapshot{db: db, lsn: db.mv.pin()}
}

// LSN returns the snapshot's commit stamp.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// Release unpins the snapshot, letting garbage collection advance past
// its stamp. Releasing twice is a no-op.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.db.mv.unpin(s.lsn)
	}
}

// Table returns a reader over one table at the snapshot's stamp.
func (s *Snapshot) Table(name string) (*TableView, error) {
	t, err := s.db.Table(name)
	if err != nil {
		return nil, err
	}
	return &TableView{t: t, lsn: s.lsn}, nil
}

// TableView reads one table at a fixed commit stamp.
type TableView struct {
	t   *Table
	lsn uint64
}

// LSN returns the view's commit stamp.
func (v *TableView) LSN() uint64 { return v.lsn }

// visibleLocked resolves the version of id visible at stamp lsn.
// Callers hold t.mu.
func (t *Table) visibleLocked(id int64, lsn uint64) (*xmltree.Document, bool) {
	for ver := t.heads[id]; ver != nil; ver = ver.prev {
		if ver.lsn <= lsn {
			if ver.doc == nil {
				return nil, false
			}
			return ver.doc, true
		}
	}
	return nil, false
}

// Get fetches the version of a document visible at the view's stamp.
func (v *TableView) Get(id int64) (*xmltree.Document, bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.t.visibleLocked(id, v.lsn)
}

// Scan visits every document visible at the view's stamp, in insertion
// order. The visit function returns false to stop; Scan reports the
// number of documents visited. Like Table.Scan it resolves the visible
// versions under one hold of the read lock.
func (v *TableView) Scan(visit func(*xmltree.Document) bool) int {
	t := v.t
	t.mu.RLock()
	docs := make([]*xmltree.Document, 0, len(t.docs))
	for _, id := range t.order {
		if id == tombstone {
			continue
		}
		if d, ok := t.visibleLocked(id, v.lsn); ok {
			docs = append(docs, d)
		}
	}
	t.mu.RUnlock()
	return visitDocs(docs, visit)
}

// Programs returns the table's cache of compiled scan predicates.
func (v *TableView) Programs() *xpath.ProgramCache { return v.t.programs }

// pushVersionLocked links a new version (doc == nil for a delete
// marker) onto id's chain and prunes the tail: the newest version at
// or below horizon is the boundary no pinnable snapshot can see past,
// so everything older is cut. Callers hold t.mu.
func (t *Table) pushVersionLocked(id int64, doc *xmltree.Document, stamp, horizon uint64) {
	v := &docVersion{doc: doc, lsn: stamp, prev: t.heads[id]}
	t.heads[id] = v
	for cur := v; cur != nil; cur = cur.prev {
		if cur.lsn <= horizon {
			cur.prev = nil
			break
		}
	}
}

// sweepLocked garbage-collects chains whose head is a delete marker at
// or below the horizon: no pinned snapshot can see any version of such
// a chain, so the chain, its order slot, and its position entry all
// go. Runs under t.mu when dead chains dominate (the delete-heavy
// analogue of compactLocked's tombstone heuristic).
func (t *Table) sweepLocked(horizon uint64) {
	for i, id := range t.order {
		if id == tombstone {
			continue
		}
		head := t.heads[id]
		if head == nil || head.doc != nil || head.lsn > horizon {
			continue
		}
		delete(t.heads, id)
		delete(t.pos, id)
		t.order[i] = tombstone
		t.tombs++
		t.dead--
	}
	if t.tombs > 64 && t.tombs > len(t.order)/2 {
		t.compactLocked()
	}
}

// TxOpKind discriminates a transaction's buffered write operations.
type TxOpKind uint8

const (
	// TxInsert adds a new document. DocID is provisional (negative)
	// until commit, when the real ID is assigned in commit order.
	TxInsert TxOpKind = iota + 1
	// TxDelete removes the document under DocID.
	TxDelete
	// TxReplace swaps the document under DocID for Doc (the engine's
	// copy-on-write UPDATE).
	TxReplace
)

// TxOp is one buffered write of a transaction, applied at commit.
type TxOp struct {
	Table string
	Kind  TxOpKind
	// DocID is the target document for TxDelete and TxReplace. For
	// TxInsert it carries the transaction's provisional (negative) ID
	// until CommitTx assigns the real one.
	DocID int64
	// Doc is the new document of a TxInsert or the post-image of a
	// TxReplace.
	Doc *xmltree.Document
}

// ErrConflict reports a first-writer-wins validation failure: another
// transaction committed a newer version of a document this one wants
// to delete or replace. The loser aborts; callers retry on a fresh
// snapshot.
var ErrConflict = errors.New("storage: write-write conflict (first writer wins)")

// lockTables resolves the distinct tables of a write set and locks
// their commit locks in sorted name order (overlapping lock sets
// cannot deadlock). It returns the sorted names, the table map, and an
// unlock function; on error nothing stays locked.
func (db *Database) lockTables(ops []TxOp) (names []string, tables map[string]*Table, unlock func(), err error) {
	names = make([]string, 0, 2)
	tables = make(map[string]*Table, 2)
	for i := range ops {
		name := ops[i].Table
		if _, ok := tables[name]; ok {
			continue
		}
		t, terr := db.Table(name)
		if terr != nil {
			return nil, nil, nil, terr
		}
		tables[name] = t
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tables[name].commitMu.Lock()
	}
	return names, tables, func() {
		for _, name := range names {
			tables[name].commitMu.Unlock()
		}
	}, nil
}

// CommitTx atomically commits a transaction's buffered writes taken
// against a snapshot at snapLSN. It locks only the written tables'
// commit locks (sorted by name, so commits on disjoint tables run
// fully concurrently and overlapping lock sets cannot deadlock),
// validates first-writer-wins — every document the transaction deletes
// or replaces must still head its chain with a stamp at or below
// snapLSN — assigns real document IDs to inserts in commit order,
// fetches a commit stamp from the atomic allocator, and publishes the
// whole write set table by table. A snapshot pins the watermark, which
// only rises over contiguous published stamps, so it sees all of the
// transaction or none of it; there is no database-wide critical
// section anywhere on this path.
//
// prepare, when non-nil, hooks the write-ahead log in: it is called
// after ID assignment (payload encoding runs concurrently with other
// tables' commits), and the append closure it returns runs with the
// commit stamp, under the written tables' commit locks — so records of
// commits touching a common table appear in the log in stamp order,
// and only records of disjoint-table commits may permute (the replay
// side reorders by stamp). The closure's LSN (the transaction's last
// log record) is returned as logLSN for the caller's group-commit
// fsync. If the append fails, the stamp is finished as a no-op so the
// watermark does not stall.
//
// An empty write set commits trivially: stamp and logLSN are 0 and no
// state changes. On ErrConflict nothing was applied or logged. A
// successful commit returns once it is visible: a commit that finished
// publishing ahead of a smaller stamp waits, its locks released, for
// the watermark to reach it. Without the wait a client's next snapshot
// could miss the commit it was just acknowledged — and conflict with
// it, or silently not find its own insert.
func (db *Database) CommitTx(snapLSN uint64, ops []TxOp, prepare func(ops []TxOp) (func(stamp uint64) (uint64, error), error)) (stamp, logLSN uint64, err error) {
	if len(ops) == 0 {
		return 0, 0, nil
	}
	if stamp, logLSN, err = db.commitLocked(snapLSN, ops, prepare); err == nil {
		db.mv.awaitVisible(stamp)
	}
	return stamp, logLSN, err
}

// Load inserts docs into table as one commit at the current watermark,
// with no log hook, and returns their assigned IDs in order — how
// generators and tests fill a table.
func (db *Database) Load(table string, docs ...*xmltree.Document) ([]int64, error) {
	ops := make([]TxOp, len(docs))
	for i, d := range docs {
		ops[i] = TxOp{Table: table, Kind: TxInsert, Doc: d}
	}
	if _, _, err := db.CommitTx(db.Watermark(), ops, nil); err != nil {
		return nil, err
	}
	ids := make([]int64, len(ops))
	for i := range ops {
		ids[i] = ops[i].DocID
	}
	return ids, nil
}

// commitLocked is CommitTx up to and including the publish, under the
// written tables' commit locks.
func (db *Database) commitLocked(snapLSN uint64, ops []TxOp, prepare func(ops []TxOp) (func(stamp uint64) (uint64, error), error)) (stamp, logLSN uint64, err error) {
	names, tables, unlock, err := db.lockTables(ops)
	if err != nil {
		return 0, 0, err
	}
	defer unlock()

	// First-writer-wins validation: under the commit locks the chains
	// cannot move, so a head stamped at or below the snapshot here is
	// still the version the transaction read when it publishes.
	for i := range ops {
		op := &ops[i]
		if op.Kind == TxInsert {
			continue
		}
		t := tables[op.Table]
		t.mu.RLock()
		head := t.heads[op.DocID]
		t.mu.RUnlock()
		if head == nil || head.doc == nil || head.lsn > snapLSN {
			return 0, 0, fmt.Errorf("%w: %s doc %d", ErrConflict, op.Table, op.DocID)
		}
	}

	// Commit-time ID assignment: per table, insert order within the
	// transaction and commitMu order across transactions — so document
	// IDs follow per-table stamp order and a serial replay of the
	// committed sequence reproduces them exactly. Aborted transactions
	// burn none.
	for i := range ops {
		op := &ops[i]
		if op.Kind != TxInsert {
			continue
		}
		t := tables[op.Table]
		t.mu.Lock()
		op.DocID = t.nextID
		t.nextID++
		t.mu.Unlock()
		op.Doc.DocID = op.DocID
	}

	// Encode log payloads before taking a stamp: a prepare failure
	// must not burn one (stamps must stay log-contiguous).
	var appendLog func(stamp uint64) (uint64, error)
	if prepare != nil {
		if appendLog, err = prepare(ops); err != nil {
			return 0, 0, err
		}
	}

	// Stamp and publish. The stamp is allocated under the commit locks,
	// so per-table stamp order equals commitMu order; the append runs
	// under the same locks, so same-table records are log-ordered by
	// stamp.
	mv := db.mv
	stamp = mv.allocStamp()
	start := time.Now()
	if appendLog != nil {
		if logLSN, err = appendLog(stamp); err != nil {
			// Burn the stamp as a published no-op so the watermark
			// (and every later commit's visibility) does not stall.
			mv.finish(stamp)
			return 0, 0, err
		}
	}
	horizon := mv.horizon()
	for _, name := range names {
		t := tables[name]
		t.mu.Lock()
		for i := range ops {
			op := &ops[i]
			if op.Table != name {
				continue
			}
			switch op.Kind {
			case TxInsert:
				t.applyInsertLocked(op.Doc, op.DocID, stamp, horizon)
			case TxDelete:
				t.applyDeleteLocked(op.DocID, stamp, horizon)
			case TxReplace:
				t.applyReplaceLocked(op.DocID, op.Doc, stamp, horizon)
			}
		}
		t.mu.Unlock()
	}
	mv.finish(stamp)
	elapsed := time.Since(start)
	mv.publishNs.Add(elapsed.Nanoseconds())
	mv.publishHist.Load().Observe(elapsed.Seconds())
	return stamp, logLSN, nil
}

// ApplyCommitted applies a replayed transaction's write set at its
// recorded commit stamp — the recovery, replication and checkpoint-load
// path. No validation runs (the commit already won on the primary or
// the pre-crash process) and document IDs are explicit: inserts restore
// under op.DocID (raising nextID past it), deletes of missing
// documents are tolerated (idempotent re-apply), replaces of missing
// documents are errors. The allocator and watermark advance to the
// stamp even for an empty write set, so live commits after recovery
// continue the log's stamp sequence.
func (db *Database) ApplyCommitted(stamp uint64, ops []TxOp) error {
	names, tables, unlock, err := db.lockTables(ops)
	if err != nil {
		return err
	}
	defer unlock()

	horizon := db.mv.horizon()
	for _, name := range names {
		t := tables[name]
		t.mu.Lock()
		for i := range ops {
			op := &ops[i]
			if op.Table != name {
				continue
			}
			switch op.Kind {
			case TxInsert:
				if op.DocID < 0 {
					t.mu.Unlock()
					return fmt.Errorf("storage: replay insert with invalid ID %d in %q", op.DocID, name)
				}
				if _, taken := t.docs[op.DocID]; taken {
					t.mu.Unlock()
					return fmt.Errorf("storage: replay insert collides with live doc %d in %q", op.DocID, name)
				}
				if op.DocID >= t.nextID {
					t.nextID = op.DocID + 1
				}
				t.applyInsertLocked(op.Doc, op.DocID, stamp, horizon)
			case TxDelete:
				t.applyDeleteLocked(op.DocID, stamp, horizon)
			case TxReplace:
				if !t.applyReplaceLocked(op.DocID, op.Doc, stamp, horizon) {
					t.mu.Unlock()
					return fmt.Errorf("storage: replay replace of missing doc %d in %q", op.DocID, name)
				}
			}
		}
		t.mu.Unlock()
	}
	db.mv.advanceTo(stamp)
	return nil
}

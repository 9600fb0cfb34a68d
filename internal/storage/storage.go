// Package storage implements the database substrate: named tables with a
// single XML column each (mirroring TPoX's SECURITY/ORDERS/CUSTACC
// tables in DB2 pureXML), document storage, and a catalog of indexes.
//
// The storage layer is deliberately simple — an in-memory document
// collection — because the advisor and optimizer only require document
// scan, document fetch by ID, and size accounting. Tables additionally
// publish a change feed (Subscribe) so derived structures — the
// incremental statistics keeper, real indexes — can track a live
// insert/delete/update stream without re-scanning the table.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xixa/internal/obs"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// ChangeKind discriminates table change events.
type ChangeKind uint8

const (
	// DocInserted marks a document entering the table (insert, restore,
	// or the re-add half of an in-place update).
	DocInserted ChangeKind = iota + 1
	// DocRemoved marks a document leaving the table (delete, or the
	// remove half of an in-place update).
	DocRemoved
)

// Change is one table mutation event. An in-place update is delivered
// as a DocRemoved for the pre-image followed by a DocInserted for the
// post-image (two version increments), so subscribers that maintain
// value-level state never see a document change without a matching
// remove/insert pair.
type Change struct {
	Kind ChangeKind
	// Doc is the affected document. For DocRemoved it is still fully
	// readable during the callback.
	Doc *xmltree.Document
	// Version is the table's mutation counter after this change.
	Version int64
	// LSN is the commit stamp that produced this change. Every change
	// of one transaction carries the same stamp, so feed subscribers
	// can tell transaction boundaries apart.
	LSN uint64
}

// tombstone marks a deleted slot in the insertion-order slice.
const tombstone int64 = -1

// SubID identifies one change-feed subscription, so long-lived
// subscribers (online index builds, statistics keepers) can detach with
// Unsubscribe when their structure is dropped.
type SubID int64

type subscriber struct {
	id SubID
	fn func(Change)
}

// Table is a named table with one XML column holding a collection of
// documents.
type Table struct {
	Name string

	// dict is the table's shared path dictionary (structural summary):
	// every document inserted into the table is rebased onto it, so a
	// PathID means the same rooted label path across all documents. The
	// statistics collector and the index builder key their work by these
	// IDs instead of re-deriving label paths per node.
	dict *xmltree.PathDict

	// programs caches the scan predicates compiled against dict, one
	// per statement template. It lives here so that it dies with the
	// table.
	programs *xpath.ProgramCache

	// mv is the owning database's MVCC state (commit stamps, publish
	// lock, snapshot pins).
	mv *mvccState

	// commitMu serializes committers targeting this table: CommitTx
	// validation+apply and ApplyCommitted replay. It is the outermost
	// lock of the commit protocol (see mvcc.go) and is per-table, so
	// commits on disjoint tables run concurrently.
	commitMu sync.Mutex

	mu      sync.RWMutex
	docs    map[int64]*xmltree.Document // current committed heads
	heads   map[int64]*docVersion       // version chains, newest first
	order   []int64                     // insertion order for deterministic scans; tombstone = deleted
	pos     map[int64]int               // doc ID -> index in order, for O(1) deletes
	tombs   int                         // tombstone count in order
	dead    int                         // chains headed by a delete marker, awaiting sweep
	nextID  int64
	nodes   int64 // total node count across documents
	bytes   int64 // total storage bytes
	version int64 // bumped on every mutation; statistics staleness check

	// applied is the newest commit stamp applied to the table: a view
	// at or past it sees exactly the current documents. image holds
	// those in insertion order for such scans, built by the first scan
	// after a mutation and never modified; every version push and sweep
	// drops it.
	applied uint64
	image   atomic.Pointer[[]*xmltree.Document]
	// unshaped counts the current documents that carry no shape (see
	// xmltree.Document.Shape).
	unshaped int

	listeners []subscriber
	nextSub   SubID
}

// PathDict returns the table's shared path dictionary.
func (t *Table) PathDict() *xmltree.PathDict { return t.dict }

// Programs returns the table's cache of compiled scan predicates.
func (t *Table) Programs() *xpath.ProgramCache { return t.programs }

// Subscribe registers a change listener and returns its subscription
// handle. Listeners are invoked with the table lock held, in
// subscription order, for every mutation from this point on; they must
// be fast and must not call back into the table.
func (t *Table) Subscribe(fn func(Change)) SubID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.subscribeLocked(fn)
}

func (t *Table) subscribeLocked(fn func(Change)) SubID {
	t.nextSub++
	t.listeners = append(t.listeners, subscriber{id: t.nextSub, fn: fn})
	return t.nextSub
}

// Unsubscribe detaches a change listener by its handle, reporting
// whether it was still registered. After Unsubscribe returns, the
// listener will not be invoked again.
func (t *Table) Unsubscribe(id SubID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.listeners {
		if s.id == id {
			t.listeners = append(t.listeners[:i], t.listeners[i+1:]...)
			return true
		}
	}
	return false
}

// SubscribeScan atomically registers a change listener and visits every
// document already in the table, so a subscriber can build its initial
// state without racing concurrent mutations: every document is seen
// exactly once, either by init or by a later DocInserted event. It
// returns the table version the initial state corresponds to and the
// subscription handle. The same callback constraints as Subscribe apply
// to both functions; init runs under the table lock, so it should only
// capture document pointers, not do per-document work.
func (t *Table) SubscribeScan(fn func(Change), init func(*xmltree.Document)) (int64, SubID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.subscribeLocked(fn)
	if init != nil {
		for _, d := range t.liveDocsLocked() {
			init(d)
		}
	}
	return t.version, id
}

// liveDocsLocked returns the current documents in insertion order.
// Callers hold t.mu.
func (t *Table) liveDocsLocked() []*xmltree.Document {
	docs := make([]*xmltree.Document, 0, len(t.docs))
	for _, id := range t.order {
		if id == tombstone {
			continue
		}
		// An order slot may outlive its document (deleted but not yet
		// swept: the chain keeps a delete marker for pinned snapshots);
		// only current documents count.
		if d, ok := t.docs[id]; ok {
			docs = append(docs, d)
		}
	}
	return docs
}

// currentLocked returns the current documents in insertion order: the
// table's scan image, built here when a mutation has dropped it. The
// slice is shared by every scan of this table version and must not be
// modified. Callers hold t.mu, for reading or writing; readers racing
// to build it store equal images.
func (t *Table) currentLocked() []*xmltree.Document {
	if img := t.image.Load(); img != nil {
		return *img
	}
	docs := t.liveDocsLocked()
	t.image.Store(&docs)
	return docs
}

// notify delivers a change to every listener. Callers hold t.mu.
func (t *Table) notify(c Change) {
	for _, s := range t.listeners {
		s.fn(c)
	}
}

// applyInsertLocked stores doc under id at the given commit stamp.
// Callers hold t.mu and the commit protocol's outer locks.
func (t *Table) applyInsertLocked(doc *xmltree.Document, id int64, stamp, horizon uint64) {
	doc.InternPaths(t.dict)
	doc.DocID = id
	if old, ok := t.pos[id]; ok {
		// The ID's previous incarnation (deleted but not yet swept)
		// still occupies an order slot: tombstone it so the re-insert
		// appends at the end, exactly where a pre-MVCC delete+insert
		// would have placed it.
		t.order[old] = tombstone
		t.tombs++
		if head := t.heads[id]; head != nil && head.doc == nil {
			t.dead--
		}
	}
	t.docs[id] = doc
	t.pos[id] = len(t.order)
	t.order = append(t.order, id)
	t.pushVersionLocked(id, doc, stamp, horizon)
	t.countShapeLocked(doc, 1)
	t.nodes += int64(doc.Len())
	t.bytes += doc.StorageBytes()
	t.version++
	t.notify(Change{Kind: DocInserted, Doc: doc, Version: t.version, LSN: stamp})
}

// countShapeLocked adds sign to the count of shape-less documents when
// doc carries no shape. Callers hold t.mu.
func (t *Table) countShapeLocked(doc *xmltree.Document, sign int) {
	if doc.Shape() == xmltree.NoShape {
		t.unshaped += sign
	}
}

// Shapes reports how the table's documents share a structural walk:
// the number of document shapes its dictionary holds, and the number
// of current documents that carry none (past the dictionary's bound).
func (t *Table) Shapes() (shapes, unshaped int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dict.Shapes(), t.unshaped
}

// SetNextID raises the table's next document ID (snapshot restore: the
// pre-snapshot table may have burned IDs past its largest live one).
// It never lowers nextID below already-assigned IDs.
func (t *Table) SetNextID(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.nextID {
		t.nextID = n
	}
}

// NextID returns the ID the next inserted document will receive.
func (t *Table) NextID() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// applyDeleteLocked pushes a delete marker for id at the given commit
// stamp (a missing id is a no-op). Pinned snapshots keep seeing the
// document; once the marker falls below the GC horizon the chain and
// its order slot are swept, so delete streams stay amortized O(1).
// Callers hold t.mu and the commit protocol's outer locks.
func (t *Table) applyDeleteLocked(id int64, stamp, horizon uint64) {
	doc, ok := t.docs[id]
	if !ok {
		return
	}
	delete(t.docs, id)
	t.countShapeLocked(doc, -1)
	t.nodes -= int64(doc.Len())
	t.bytes -= doc.StorageBytes()
	t.pushVersionLocked(id, nil, stamp, horizon)
	t.dead++
	t.version++
	t.notify(Change{Kind: DocRemoved, Doc: doc, Version: t.version, LSN: stamp})
	if t.dead > 64 && t.dead*2 > len(t.order) {
		t.sweepLocked(horizon)
	}
}

// compactLocked rewrites order without tombstones and rebuilds pos.
// Insertion order among live documents is preserved.
func (t *Table) compactLocked() {
	live := t.order[:0]
	for _, id := range t.order {
		if id == tombstone {
			continue
		}
		t.pos[id] = len(live)
		live = append(live, id)
	}
	t.order = live
	t.tombs = 0
}

// applyReplaceLocked swaps the document under id for newDoc at the
// given commit stamp, reporting whether id existed. It is copy-on-write:
// the old document is never mutated, so readers holding its pointer keep
// a consistent pre-image. Subscribers see a DocRemoved of the old
// document then a DocInserted of the new one, which keeps the old ID
// and insertion-order position. Callers hold t.mu and the commit
// protocol's outer locks.
func (t *Table) applyReplaceLocked(id int64, newDoc *xmltree.Document, stamp, horizon uint64) bool {
	old, ok := t.docs[id]
	if !ok {
		return false
	}
	newDoc.InternPaths(t.dict)
	newDoc.DocID = id
	t.nodes += int64(newDoc.Len()) - int64(old.Len())
	t.bytes += newDoc.StorageBytes() - old.StorageBytes()
	t.version++
	t.notify(Change{Kind: DocRemoved, Doc: old, Version: t.version, LSN: stamp})
	t.docs[id] = newDoc
	t.countShapeLocked(old, -1)
	t.countShapeLocked(newDoc, 1)
	t.pushVersionLocked(id, newDoc, stamp, horizon)
	t.version++
	t.notify(Change{Kind: DocInserted, Doc: newDoc, Version: t.version, LSN: stamp})
	return true
}

// Get fetches a document by ID.
func (t *Table) Get(id int64) (*xmltree.Document, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.docs[id]
	return d, ok
}

// Scan visits every document in insertion order. The visit function
// returns false to stop. Scan reports the number of documents visited.
// The documents are those current when Scan starts: the live pointers
// are collected under one hold of the read lock and visited with no
// lock held, so a document deleted or replaced meanwhile is still
// visited, as its pre-image.
func (t *Table) Scan(visit func(*xmltree.Document) bool) int {
	t.mu.RLock()
	docs := t.currentLocked()
	t.mu.RUnlock()
	return visitDocs(docs, visit)
}

func visitDocs(docs []*xmltree.Document, visit func(*xmltree.Document) bool) int {
	for i, d := range docs {
		if !visit(d) {
			return i + 1
		}
	}
	return len(docs)
}

// DocCount returns the number of stored documents.
func (t *Table) DocCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.docs)
}

// NodeCount returns the total number of nodes across all documents.
func (t *Table) NodeCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// SizeBytes returns the total storage size of the table.
func (t *Table) SizeBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Horizon returns the garbage-collection floor: the smallest pinned
// snapshot stamp, or the watermark when nothing is pinned. No version
// at or below the horizon can ever be read by a new or existing
// snapshot, so derived structures (version-aware indexes) may prune
// their history up to it.
func (t *Table) Horizon() uint64 { return t.mv.horizon() }

// StampCeiling returns the last commit stamp handed out by the
// allocator: every commit that began before this call carries a stamp
// at or below the returned value. Derived structures use it to bound
// the stamps of events that predate their subscription.
func (t *Table) StampCeiling() uint64 { return t.mv.next.Load() }

// Version returns the mutation counter, used by the statistics module
// to detect stale statistics.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Database is a set of named tables sharing one MVCC state, so a
// snapshot pins a consistent cut across all of them and transactions
// can span tables.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
	mv     *mvccState
	// reg is the registry InstrumentWith attached, which gets the
	// gauges of every table created afterwards too. Guarded by mu.
	reg *obs.Registry
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table), mv: newMVCCState()}
}

// CreateTable adds a new empty table. It fails if the name is taken.
func (db *Database) CreateTable(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	dict := xmltree.NewPathDict()
	t := &Table{
		Name:     name,
		dict:     dict,
		programs: xpath.NewProgramCache(dict),
		mv:       db.mv,
		docs:     make(map[int64]*xmltree.Document),
		heads:    make(map[int64]*docVersion),
		pos:      make(map[int64]int),
	}
	db.tables[name] = t
	if db.reg != nil {
		t.instrumentWith(db.reg)
	}
	return t, nil
}

// DropTable removes a table from the catalog. It fails if the name is
// unknown. Snapshots already holding the *Table keep reading it (the
// table's version chains are untouched); the name just stops
// resolving. The shard router uses it to roll back a cluster-wide
// create that failed partway.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("storage: no such table %q", name)
	}
	delete(db.tables, name)
	return nil
}

// MustCreateTable is CreateTable that panics on error.
func (db *Database) MustCreateTable(name string) *Table {
	t, err := db.CreateTable(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Table looks up a table by name.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: no such table %q", name)
	}
	return t, nil
}

// TableNames returns the sorted table names.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

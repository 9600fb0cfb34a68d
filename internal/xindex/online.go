// Online index builds: constructing a real index on a table that is
// concurrently serving inserts, updates, and deletes, without ever
// blocking the writers (DB2's CREATE INDEX ... ALLOW WRITE ACCESS; the
// capability the paper's autonomous-tuning loop presumes when it
// materializes recommendations against live traffic).
//
// The build runs a three-phase state machine:
//
//  1. Capture: atomically subscribe to the table's change feed and snap
//     the current document pointers (SubscribeScan — O(docs) pointer
//     copies under the table lock, no per-document work). From this
//     instant every mutation is either in the snapshot or delivered as
//     a change event, never both. MVCC transaction commits apply each
//     table's part of their write set under one table-lock hold, so
//     the capture boundary is a consistent cut: it never lands inside
//     a transaction's batch for this table, and catch-up replays whole
//     per-table batches in commit-stamp order. Events buffer while the
//     build runs.
//  2. Build: index the snapshot off to the side. Documents are
//     immutable (updates are copy-on-write storage.Table.Replace), so
//     no lock is needed while indexing them.
//  3. Catch-up: drain the buffered change events in feed order. When
//     the buffer runs dry, flip to direct mode under the same mutex
//     the listener takes, so there is no window where an event is
//     neither buffered nor applied. From then on the index maintains
//     itself synchronously from the feed.
//
// The finished index is "self-maintained" (SelfMaintained reports
// true): the only kind the engine probes. Release detaches the feed
// subscription when the index is dropped.
package xindex

import (
	"fmt"
	"sync"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// onlineState is the feed-coupling state of a self-maintained index.
type onlineState struct {
	table *storage.Table
	sub   storage.SubID

	mu     sync.Mutex
	buf    []storage.Change // buffered events while the build runs
	direct bool             // catch-up finished: apply events inline
}

// SelfMaintained reports whether the index maintains itself from the
// table's change feed. The engine probes only such indexes; a plan
// naming a detached one runs as a scan.
func (x *Index) SelfMaintained() bool { return x.online != nil }

// Release detaches a self-maintained index from its table's change
// feed. Call after dropping the index from the catalog, once in-flight
// plans have drained; the index remains scannable but stops tracking
// the table. Release is idempotent; batch-built indexes are no-ops.
func (x *Index) Release() {
	if x.online == nil || x.online.sub == 0 {
		return
	}
	x.online.table.Unsubscribe(x.online.sub)
	x.online.sub = 0
}

// onChange is the index's change-feed listener. It runs under the
// table lock: during the build it only appends to the buffer; after
// catch-up it applies the event to the tree inline, so the index is
// current the moment the mutating statement's table call returns.
func (x *Index) onChange(c storage.Change) {
	o := x.online
	o.mu.Lock()
	if !o.direct {
		o.buf = append(o.buf, c)
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	x.applyChange(c)
}

// applyChange applies one feed event at its commit stamp, so the
// entries it creates or kills are attributed to the right snapshot
// boundary (ScanAsOf).
func (x *Index) applyChange(c storage.Change) {
	switch c.Kind {
	case storage.DocInserted:
		x.insertDocAt(c.Doc, c.LSN)
	case storage.DocRemoved:
		x.deleteDocAt(c.Doc, c.LSN)
	}
}

// BuildOnline creates and populates an index over a table that may be
// mutating concurrently, returning once the index has caught up with
// the change feed and become self-maintained. Writers never block on
// the build (the only table-lock work is the pointer snapshot and the
// per-event buffer append); from return onward the index content at
// any table version is bit-identical to what a cold Build at that
// version would produce.
//
// The caller owns the returned index and must Release it when the
// index is dropped, or the feed subscription leaks. Correctness rests
// on updates being copy-on-write (Table.Replace, the only update path
// storage offers): buffered events reference documents that must not
// change under them.
func BuildOnline(t *storage.Table, def Definition) (*Index, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if t.Name != def.Table {
		return nil, fmt.Errorf("xindex: definition targets table %q, got %q", def.Table, t.Name)
	}
	idx := newEmpty(t, def)
	o := &onlineState{table: t}
	idx.online = o

	// Phase 1: capture. Snapshot pointers and subscribe in one atomic
	// step; subsequent mutations land in o.buf.
	var docs []*xmltree.Document
	_, sub := t.SubscribeScan(idx.onChange, func(d *xmltree.Document) {
		docs = append(docs, d)
	})
	o.sub = sub
	// Version bookkeeping starts at the capture instant: every delete
	// that committed before it left no tomb, and every such stamp is at
	// or below the ceiling read here (stamps are allocated before their
	// table apply). Snapshot scans are exact from this stamp onward.
	idx.mu.Lock()
	idx.versionedSince = t.StampCeiling()
	idx.mu.Unlock()

	// Phase 2: build off to the side. Documents are immutable, so this
	// needs no table lock; writers proceed concurrently.
	for _, doc := range docs {
		idx.insertDoc(doc)
	}

	// Phase 3: catch-up. Replay buffered events in feed order; new
	// events keep buffering while a batch replays, preserving order.
	// When a drain finds the buffer empty it flips to direct mode under
	// o.mu — the same mutex the listener takes — so every event is
	// either replayed here or applied inline, exactly once.
	for {
		o.mu.Lock()
		if len(o.buf) == 0 {
			o.direct = true
			o.mu.Unlock()
			return idx, nil
		}
		batch := o.buf
		o.buf = nil
		o.mu.Unlock()
		idx.catchupEvents += len(batch)
		for _, c := range batch {
			idx.applyChange(c)
		}
	}
}

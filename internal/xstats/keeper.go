package xstats

import (
	"sync"
	"sync/atomic"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// Keeper maintains one table's statistics incrementally: it subscribes
// to the table's change feed, accumulates insertions/removals into a
// pending Delta, and folds the delta into the current TableStats
// snapshot on demand. After a K-document change batch, refreshing costs
// O(values in the K documents) plus one pointer per path of the table
// — never a re-pass over the table, and not a re-derivation of the
// touched paths either: a path is re-derived from its full value
// multiset only when the batch moves its numeric range (see
// TableStats.ApplyDelta). A snapshot at table version V is
// bit-identical to a fresh Collect at version V (the xstats golden
// tests assert this after every step of a mutation stream).
//
// Snapshots returned by Stats are immutable and safe to share with
// concurrent readers; the keeper alone mutates the underlying store.
//
// Stats sits on the optimizer's hot path (every Evaluate Indexes call
// under a live optimizer reads it), so between mutations it is a
// lock-free fast path: the current snapshot and observed version are
// published atomically, and the mutex is only taken to fold pending
// changes in after the version moved.
type Keeper struct {
	table *storage.Table

	version atomic.Int64               // table version covered by snap ⊕ pending
	snap    atomic.Pointer[TableStats] // latest built snapshot
	mu      sync.Mutex                 // guards pending and snapshot rebuilds
	pending *Delta

	folds    atomic.Int64 // deltas folded into the snapshot
	rebuilds atomic.Int64 // paths those folds re-derived from their full multisets
}

// NewKeeper builds the initial statistics for the table and subscribes
// to its change feed. Registration and the initial scan are atomic with
// respect to table mutations, so no change is missed or double-counted.
func NewKeeper(t *storage.Table) *Keeper {
	k := &Keeper{table: t}
	k.mu.Lock()
	defer k.mu.Unlock()
	d := NewDelta(t.PathDict())
	version, _ := t.SubscribeScan(k.onChange, func(doc *xmltree.Document) {
		d.CollectDoc(doc)
	})
	k.version.Store(version)
	k.snap.Store(FromDelta(t.Name, version, d))
	k.pending = NewDelta(t.PathDict())
	return k
}

// onChange is the table's change listener; it runs under the table lock
// and must not call back into the table.
func (k *Keeper) onChange(c storage.Change) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch c.Kind {
	case storage.DocInserted:
		k.pending.CollectDoc(c.Doc)
	case storage.DocRemoved:
		k.pending.RemoveDoc(c.Doc)
	}
	k.version.Store(c.Version)
}

// Stats returns the current statistics snapshot, folding any pending
// changes in first: O(values in the documents changed since the last
// call) plus one pointer per path of the table, and O(distinct values)
// more for each path whose numeric range the changes moved. When
// nothing changed it is two atomic loads.
func (k *Keeper) Stats() *TableStats {
	if snap := k.snap.Load(); snap.Version == k.version.Load() {
		// A concurrent rebuild may publish a newer snapshot between the
		// two loads; the version recheck only ever sends that case down
		// the locked path, never returns a stale snapshot as current.
		return snap
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.statsLocked()
}

func (k *Keeper) statsLocked() *TableStats {
	version := k.version.Load()
	snap := k.snap.Load()
	if snap.Version != version {
		ns, err := snap.ApplyDelta(k.pending, version)
		if err != nil {
			// Unreachable: keeper-built snapshots always carry a
			// mergeable store over the table's own dictionary. A full
			// re-collect here could deadlock against a mutator waiting
			// in onChange, so treat it as the invariant violation it is.
			panic("xstats: keeper snapshot lost its mergeable store: " + err.Error())
		}
		k.snap.Store(ns)
		k.pending.Reset()
		k.folds.Add(1)
		k.rebuilds.Add(int64(ns.rederived))
		snap = ns
	}
	return snap
}

// CloneStats returns a deep copy of the current statistics with an
// independent mergeable store. Snapshots returned by Stats share the
// keeper's retained store, which the keeper mutates on every later
// fold — safe for readers, but not for TableStats.Merge, which reads
// the store's accumulators outside the keeper's lock. Cross-table (and
// cross-shard) merges must start from CloneStats; the copy is made
// under the keeper's mutex, so it is a consistent cut even while the
// table keeps mutating.
func (k *Keeper) CloneStats() *TableStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	snap := k.statsLocked()
	return FromDelta(snap.Table, snap.Version, snap.acc.Clone())
}

// FoldCounts returns how many deltas the keeper has folded into its
// snapshot and how many paths those folds re-derived from their full
// value multisets instead of updating in place: a path whose numeric
// range the delta moved, or one the store had not seen.
func (k *Keeper) FoldCounts() (folds, pathRebuilds int64) {
	return k.folds.Load(), k.rebuilds.Load()
}

// KeeperSet lazily maintains one Keeper per table of a database. It
// implements the optimizer's StatsSource, making every statistics read
// version-aware: after any table mutation the next read reflects it.
type KeeperSet struct {
	db *storage.Database

	mu      sync.RWMutex
	keepers map[string]*Keeper
}

// NewKeeperSet creates an empty keeper set over a database. Keepers are
// created on first use per table (paying one initial scan each).
func NewKeeperSet(db *storage.Database) *KeeperSet {
	return &KeeperSet{db: db, keepers: make(map[string]*Keeper)}
}

// Keeper returns the table's keeper, creating and subscribing it on
// first use. The steady state is a read-locked map hit, so concurrent
// optimizer pipelines do not serialize here.
func (ks *KeeperSet) Keeper(table string) (*Keeper, error) {
	ks.mu.RLock()
	k, ok := ks.keepers[table]
	ks.mu.RUnlock()
	if ok {
		return k, nil
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if k, ok := ks.keepers[table]; ok {
		return k, nil
	}
	t, err := ks.db.Table(table)
	if err != nil {
		return nil, err
	}
	k = NewKeeper(t)
	ks.keepers[table] = k
	return k, nil
}

// TableStats returns the table's current statistics snapshot (the
// StatsSource contract).
func (ks *KeeperSet) TableStats(table string) (*TableStats, error) {
	k, err := ks.Keeper(table)
	if err != nil {
		return nil, err
	}
	return k.Stats(), nil
}

// FoldCounts sums Keeper.FoldCounts over the tables kept so far.
func (ks *KeeperSet) FoldCounts() (folds, pathRebuilds int64) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	for _, k := range ks.keepers {
		f, r := k.FoldCounts()
		folds, pathRebuilds = folds+f, pathRebuilds+r
	}
	return folds, pathRebuilds
}

// CloneTableStats returns an independently-owned copy of the table's
// statistics, safe to Merge across dictionaries while the keeper keeps
// maintaining the original (see Keeper.CloneStats).
func (ks *KeeperSet) CloneTableStats(table string) (*TableStats, error) {
	k, err := ks.Keeper(table)
	if err != nil {
		return nil, err
	}
	return k.CloneStats(), nil
}

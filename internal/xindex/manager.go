package xindex

import (
	"fmt"
	"sort"
	"sync"

	"xixa/internal/obs"
	"xixa/internal/storage"
)

// CatalogOps is the slice of a catalog the lifecycle manager needs:
// engine.Catalog satisfies it. Implementations must be safe for
// concurrent use (the manager mutates the catalog while statements
// read it).
type CatalogOps interface {
	Add(*Index)
	Drop(Definition) bool
	Get(Definition) (*Index, bool)
	Definitions() []Definition
}

// Manager is the online index lifecycle manager: it materializes
// definitions with BuildOnline and atomically swaps them into a
// catalog, and it drops indexes with the release deferred until
// in-flight plans drain, so a plan chosen before the drop can still
// probe the index it references.
type Manager struct {
	db  *storage.Database
	cat CatalogOps

	// drain, when non-nil, blocks until every statement in flight at
	// call time has finished (the serving layer's gate barrier). Drops
	// release their feed subscription only after drain returns. A nil
	// drain releases immediately — correct for single-threaded tools.
	drain func()

	mu sync.Mutex // serializes builds/drops; never held across drain

	// Nil-safe metric handles; zero values when uninstrumented.
	metBuilds  *obs.Counter
	metDrops   *obs.Counter
	metCatchup *obs.Counter
}

// InstrumentWith registers the manager's lifecycle counters on reg:
// online builds and deferred drops completed, and the total change-feed
// events the builds' catch-up phases replayed (the concurrent-write
// pressure absorbed while indexing live tables).
func (m *Manager) InstrumentWith(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metBuilds = reg.Counter("xixa_index_builds_total")
	m.metDrops = reg.Counter("xixa_index_drops_total")
	m.metCatchup = reg.Counter("xixa_index_build_catchup_events_total")
}

// NewManager creates a lifecycle manager over a database and catalog.
// drain may be nil (no in-flight statements to wait for).
func NewManager(db *storage.Database, cat CatalogOps, drain func()) *Manager {
	return &Manager{db: db, cat: cat, drain: drain}
}

// EnsureBuilt materializes def online unless the catalog already holds
// it. It reports whether a build happened. The swap into the catalog is
// atomic: concurrent statements see either the old configuration or
// the new one, never a partial index.
func (m *Manager) EnsureBuilt(def Definition) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cat.Get(def); ok {
		return false, nil
	}
	tbl, err := m.db.Table(def.Table)
	if err != nil {
		return false, fmt.Errorf("xindex: build %s: %w", def, err)
	}
	idx, err := BuildOnline(tbl, def)
	if err != nil {
		return false, err
	}
	m.cat.Add(idx)
	m.metBuilds.Inc()
	m.metCatchup.Add(uint64(idx.catchupEvents))
	return true, nil
}

// DropDeferred removes def from the catalog immediately (new plans stop
// choosing it) but keeps the index alive and feed-maintained until
// in-flight plans drain, then releases its feed subscription. It
// reports whether the index existed.
func (m *Manager) DropDeferred(def Definition) bool {
	m.mu.Lock()
	idx, ok := m.cat.Get(def)
	if ok {
		m.cat.Drop(def)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	// In-flight statements hold catalog views that still resolve this
	// index; it must keep tracking the table until they finish or a
	// late probe would see missing entries.
	if m.drain != nil {
		m.drain()
	}
	idx.Release()
	m.metDrops.Inc()
	return true
}

// Reconcile applies a configuration diff: build every definition in
// toBuild, then drop every definition in toDrop (deferred). It returns
// the definitions actually built and dropped. Builds run before drops
// so the catalog never transits through an under-indexed state.
func (m *Manager) Reconcile(toBuild, toDrop []Definition) (built, dropped []Definition, err error) {
	for _, def := range toBuild {
		did, berr := m.EnsureBuilt(def)
		if berr != nil {
			return built, dropped, berr
		}
		if did {
			built = append(built, def)
		}
	}
	for _, def := range toDrop {
		if m.DropDeferred(def) {
			dropped = append(dropped, def)
		}
	}
	return built, dropped, nil
}

// SortDefinitions orders definitions by canonical key, the manager's
// deterministic processing order.
func SortDefinitions(defs []Definition) {
	sort.Slice(defs, func(i, j int) bool { return defs[i].Key() < defs[j].Key() })
}

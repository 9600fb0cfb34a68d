// Package shard is the horizontal scale-out layer: it partitions
// tables by document-key hash across N shard instances and presents
// them as one database. Each shard is a full server.Server (engine,
// MVCC storage, live statistics, index manager, capture ring) over its
// own storage.Database; the cluster adds a deterministic router on
// top, a scatter-gather executor for statements that cannot be pinned
// to one shard, and a shard-aware tuning round that advises from the
// merged per-shard statistics (tuner.go).
//
// Routing is conservative and therefore always sound: an insert hashes
// the document's partition-key value to its owning shard; a query,
// delete, or update whose predicate pins the partition key with a
// string equality executes on that one shard; everything else fans out
// to every shard. A statement the router fails to recognize as
// single-shard merely degrades to scatter — it never produces a wrong
// answer — and a table whose key stops identifying one shard (a
// document arrives without exactly one key node, or an update can
// rewrite the key leaf itself, stranding the document on its old
// value's shard) permanently falls back to scatter for that table.
//
// The ordering guarantee: a cluster produces bit-identical results to
// an unsharded engine fed the same statement stream. Document IDs are
// allocated from one global per-table counter and installed into the
// owning shard's table ahead of each insert (storage.Table.SetNextID
// only ever raises, and same-shard inserts on a table serialize), so
// every document carries the same ID it would have unsharded; each
// shard emits query results in ascending document-ID order, so the
// gather merge — a stable sort of the concatenated partials by
// document ID — reproduces the unsharded output exactly, ordering
// included.
//
// Shards are in-process today, but sessions reach them only through
// server.Session's statement interface plus three narrow hooks
// (capture, statistics snapshot, index reconcile), the seam a future
// remote-node transport slots into.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// Config tunes the cluster. The zero value selects one shard with
// server defaults (a degenerate but valid cluster).
type Config struct {
	// Shards is the number of shard instances (0 = 1).
	Shards int
	// Keys maps a table name to its absolute partition-key path (e.g.
	// "SECURITY" -> "/Security/Symbol", "ORDERS" -> "/Order/@ID"). The
	// key path must be linear: child axes and named steps only.
	// Documents hash to shards by the key's string value; statements
	// that pin the key with a string equality route to one shard.
	// Tables without a key entry always scatter.
	Keys map[string]string
	// Server is the per-shard configuration template. Durability and
	// replication fields must be unset — the cluster does not compose
	// with the WAL or replica layers yet.
	Server server.Config
	// MaxFanout caps concurrently executing scatter-gather statements
	// (0 = 4x GOMAXPROCS). Past the cap the router fails fast with
	// server.ErrOverloaded, mirroring per-shard admission.
	MaxFanout int
	// TuneInterval is the cluster's autonomous tuning period for
	// StartAutoTune (0 = disabled; TuneOnce still works). The advisor
	// knobs — Algorithm, Budget, BuildAfter, DropAfter — come from the
	// Server template.
	TuneInterval time.Duration
}

// Cluster is N shard servers behind one deterministic router.
type Cluster struct {
	cfg    Config
	n      int
	shards []*server.Server
	dbs    []*storage.Database
	met    *clusterMetrics

	mu     sync.RWMutex
	tables map[string]*tableRoute

	fanGate chan struct{}

	tuner  *server.Tuner
	target map[string]xindex.Definition // post-hysteresis cluster configuration (tuner.go)

	closed atomic.Bool
}

// tableRoute is one table's routing state: the parsed partition key,
// the global document-ID allocator, and the per-shard insert locks
// that serialize ID installation with commit.
type tableRoute struct {
	name   string
	keyed  bool
	key    xpath.Path
	labels []string // key path's root-to-leaf labels, attributes "@name"

	nextID atomic.Int64 // next global document ID for this table
	insMu  []sync.Mutex // per-shard: serializes SetNextID with commit

	// scatterOnly latches when equality routing becomes unsound: a
	// document arrives with a key-node count other than one (the key
	// no longer identifies one shard), or an update may rewrite the
	// key leaf itself (the document keeps its old-value placement).
	// The table permanently degrades to scatter. Routing stays correct
	// either way; this only gives up the single-shard fast path.
	scatterOnly atomic.Bool
}

// NewCluster creates a cluster of cfg.Shards in-process shard servers.
func NewCluster(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if cfg.Server.WALDir != "" || cfg.Server.Replica {
		return nil, fmt.Errorf("shard: durability/replication server options do not compose with sharding")
	}
	if cfg.Server.TuneInterval != 0 {
		// Per-shard autonomous tuners would race the cluster tuner for
		// the shard catalogs; tuning is cluster-level only.
		return nil, fmt.Errorf("shard: set tuning on the cluster, not the per-shard server config")
	}
	cfg.Server = cfg.Server.WithDefaults()
	fan := cfg.MaxFanout
	if fan <= 0 {
		fan = 4 * runtime.GOMAXPROCS(0)
	}
	c := &Cluster{
		cfg:     cfg,
		n:       n,
		tables:  make(map[string]*tableRoute),
		fanGate: make(chan struct{}, fan),
		target:  make(map[string]xindex.Definition),
	}
	for i := 0; i < n; i++ {
		db := storage.NewDatabase()
		c.dbs = append(c.dbs, db)
		c.shards = append(c.shards, server.New(db, cfg.Server))
	}
	c.met = newClusterMetrics(c)
	c.tuner = server.NewTuner(cfg.Server, c.met.tunerRounds, nil)
	return c, nil
}

// Shards returns the number of shard instances.
func (c *Cluster) Shards() int { return c.n }

// Shard returns shard i's server — the escape hatch tests and the
// daemon's introspection commands use. Mutating a shard directly
// bypasses the router's ID allocation and breaks the unsharded
// equivalence; read-only use only.
func (c *Cluster) Shard(i int) *server.Server { return c.shards[i] }

// CreateTable creates the table on every shard and registers its
// routing state. The partition key, if configured, is validated here.
func (c *Cluster) CreateTable(name string) error {
	// Global document IDs continue each shard table's native sequence
	// (storage tables start at 0), so a cluster assigns exactly the
	// IDs an unsharded table would.
	rt := &tableRoute{name: name, insMu: make([]sync.Mutex, c.n)}
	if spec, ok := c.cfg.Keys[name]; ok {
		p, err := xpath.Parse(spec)
		if err != nil {
			return fmt.Errorf("shard: partition key for %s: %w", name, err)
		}
		labels, ok := exactLabels(p)
		if ok && p.Relative {
			ok = false
		}
		if !ok {
			return fmt.Errorf("shard: partition key for %s must be an absolute linear path: %s", name, spec)
		}
		rt.keyed, rt.key, rt.labels = true, p, labels
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("shard: table %s already exists", name)
	}
	for i, db := range c.dbs {
		if _, err := db.CreateTable(name); err != nil {
			// Roll back the shards already created: leaving them would
			// make every retry die on shard 0's "already exists" while
			// the route never registers — the table would be
			// permanently uncreatable.
			for _, prev := range c.dbs[:i] {
				prev.DropTable(name)
			}
			return err
		}
	}
	c.tables[name] = rt
	return nil
}

// TableNames returns the cluster's table names in creation-independent
// sorted order (delegating to shard 0, whose database holds exactly
// the cluster's tables).
func (c *Cluster) TableNames() []string {
	return c.dbs[0].TableNames()
}

func (c *Cluster) route(table string) *tableRoute {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[table]
}

// Close shuts down every shard. In-flight statements drain per shard.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.StopAutoTune()
	for _, s := range c.shards {
		s.Close()
	}
}

// Session is one client's handle on the cluster: one server session
// per shard plus the router state to dispatch between them. Like
// server.Session it is safe for concurrent use.
type Session struct {
	c    *Cluster
	sess []*server.Session
}

// NewSession opens a session on every shard. Per-shard session caps
// apply: a cluster session counts against each shard's MaxSessions.
func (c *Cluster) NewSession() (*Session, error) {
	if c.closed.Load() {
		return nil, server.ErrClosed
	}
	s := &Session{c: c}
	for _, srv := range c.shards {
		sess, err := srv.NewSession()
		if err != nil {
			s.Close()
			return nil, err
		}
		s.sess = append(s.sess, sess)
	}
	return s, nil
}

// Close releases the per-shard sessions.
func (s *Session) Close() {
	for _, sess := range s.sess {
		if sess != nil {
			sess.Close()
		}
	}
}

// Execute parses and executes one statement through the router.
func (s *Session) Execute(raw string) (*server.Result, error) {
	stmt, err := xquery.Parse(raw)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStmt(stmt)
}

// ExecuteStmt routes a parsed statement: inserts and key-pinned
// statements execute on their owning shard, everything else
// scatter-gathers across all shards (scatter.go).
func (s *Session) ExecuteStmt(stmt *xquery.Statement) (*server.Result, error) {
	c := s.c
	if c.closed.Load() {
		return nil, server.ErrClosed
	}
	if stmt.Kind == xquery.Insert {
		return s.executeInsert(stmt)
	}
	if stmt.Kind == xquery.Update && c.n > 1 {
		// An update can rewrite the partition-key leaf itself (set
		// Symbol = "BBB" under a match on the old value). The document
		// stays on the old value's shard, so equality routing by the
		// new value would silently miss it; latch scatter-only BEFORE
		// dispatch so this statement and every later one sees all
		// shards.
		if rt := c.route(stmt.Table); rt != nil && rt.keyed &&
			!rt.scatterOnly.Load() && rt.updateMayTargetKey(stmt) {
			rt.scatterOnly.Store(true)
		}
	}
	if shard, ok := c.pinnedShard(stmt); ok {
		c.met.local.Inc()
		return s.executeOn(shard, stmt)
	}
	return s.scatter(stmt)
}

// executeOn runs the statement on one shard, keeping the per-shard
// statement and admission-reject counters.
func (s *Session) executeOn(shard int, stmt *xquery.Statement) (*server.Result, error) {
	c := s.c
	c.met.shardStmts[shard].Inc()
	res, err := s.sess[shard].ExecuteStmt(stmt)
	if err == server.ErrOverloaded {
		c.met.shardRejects[shard].Inc()
	}
	return res, err
}

// executeInsert places the document on its key shard under a globally
// allocated document ID, so the cluster's ID sequence matches what an
// unsharded engine would have assigned to the same insert order.
func (s *Session) executeInsert(stmt *xquery.Statement) (*server.Result, error) {
	c := s.c
	rt := c.route(stmt.Table)
	if rt == nil {
		// Unknown table: let shard 0's engine produce the same error
		// an unsharded engine would.
		c.met.local.Inc()
		return s.executeOn(0, stmt)
	}
	shard := rt.insertShard(stmt, c.n)
	c.met.local.Inc()

	// Reserve the next global ID and install it as the shard table's
	// next ID before executing. SetNextID only raises and global IDs
	// are monotone, so the install is always valid; holding the
	// (table, shard) insert lock across execution guarantees the
	// commit consumes exactly the reserved ID. Inserts to different
	// shards (or tables) proceed in parallel.
	rt.insMu[shard].Lock()
	defer rt.insMu[shard].Unlock()
	id := rt.nextID.Add(1) - 1
	if tbl, err := c.dbs[shard].Table(stmt.Table); err == nil {
		tbl.SetNextID(id)
	}
	res, err := s.executeOn(shard, stmt)
	if err != nil {
		// The insert consumed no ID (commit never ran); hand the
		// reservation back unless another table insert already
		// reserved past it — a gap there is harmless (IDs stay unique
		// and monotone), it only diverges from the unsharded ID
		// sequence under concurrent failures.
		rt.nextID.CompareAndSwap(id+1, id)
	}
	return res, err
}

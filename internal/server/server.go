// Package server is the serving layer: it executes statements from
// many concurrent client sessions against one live engine, captures
// the executed workload, and (tuner.go) runs the paper's advisor
// autonomously over that capture, materializing its recommendations
// online. It is the piece that turns the batch advisor reproduction
// into a self-tuning server — the deployment the paper positions the
// advisor for, where workload capture happens inside the running DBMS
// and recommendations feed back without stopping traffic.
//
// Concurrency model:
//
//   - Queries execute concurrently and never take a server-wide lock.
//     The read path is lock-free against mutators: the catalog is read
//     through immutable snapshots (engine.View), documents are
//     immutable (updates are copy-on-write storage.Table.Replace), and
//     statistics snapshots publish through atomic pointers.
//   - Mutating statements run as snapshot-isolated transactions
//     (engine.Txn over storage's MVCC version chains): each executes
//     against a pinned snapshot, buffers its writes, and commits with
//     first-writer-wins validation, so writers on disjoint documents
//     proceed in parallel — there is no global writer lock. A conflict
//     aborts the transaction cleanly and the statement retries on a
//     fresh snapshot (txn.go); both proceed concurrently with queries.
//   - Checkpoints and snapshot saves quiesce commits through commitGate
//     (a writer-preference RWMutex): every commit holds the read side,
//     so the exclusive side observes a point-in-time database with no
//     transaction partially published and no WAL record past the
//     checkpoint LSN that the checkpoint already covers.
//   - Admission control bounds the statements in the system: at most
//     MaxConcurrent execute while QueueDepth more wait; past that,
//     Execute fails fast with ErrOverloaded instead of building an
//     unbounded backlog.
//   - Index drops defer their release until every statement in flight
//     at drop time has finished (the gate barrier), so a plan chosen
//     against the old configuration can still probe the index it
//     references.
package server

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// Errors returned by the admission and session layers.
var (
	// ErrOverloaded reports that the bounded work queue is full; the
	// client should back off and retry.
	ErrOverloaded = errors.New("server: overloaded (work queue full)")
	// ErrTooManySessions reports the session cap was hit.
	ErrTooManySessions = errors.New("server: too many sessions")
	// ErrClosed reports the server has shut down.
	ErrClosed = errors.New("server: closed")
	// ErrReadOnly reports a mutation on a read-only replica; only a
	// promotion (Promote) opens it for writes.
	ErrReadOnly = errors.New("server: read-only replica (promote to accept writes)")
	// ErrFenced reports a mutation on a fenced server: a newer primary
	// epoch exists, so accepting the write would fork history. A fenced
	// server never un-fences; it must be rebuilt as a replica of the
	// new primary.
	ErrFenced = errors.New("server: fenced by a newer primary epoch")
)

// Config tunes the serving layer. The zero value selects sensible
// defaults everywhere.
type Config struct {
	// MaxConcurrent caps statements executing simultaneously
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth caps statements waiting for an execution slot beyond
	// the executing ones (0 = 4x MaxConcurrent).
	QueueDepth int
	// MaxSessions caps open sessions (0 = 256).
	MaxSessions int

	// DecayFactor is the per-tuning-round exponential decay applied to
	// captured statement weights (0 = 0.7).
	DecayFactor float64
	// DecayFloor evaporates captured entries whose decayed weight falls
	// below it (0 = 0.25).
	DecayFloor float64

	// Algorithm is the advisor search the tuning loop runs
	// ("" = core.AlgoTopDownFull).
	Algorithm string
	// Budget is the disk budget in bytes for recommended indexes
	// (0 = the All-Index size of each round's candidates).
	Budget int64
	// BuildAfter is the build hysteresis: a definition must appear in
	// this many consecutive recommendations before it is materialized
	// (0 = 2). 1 materializes immediately.
	BuildAfter int
	// DropAfter is the drop hysteresis: a materialized index must be
	// absent from this many consecutive recommendations before it is
	// dropped (0 = 3).
	DropAfter int
	// TuneInterval is the autonomous tuning period for StartAutoTune
	// (0 = autonomous tuning disabled; TuneOnce still works).
	TuneInterval time.Duration
	// Parallelism is threaded into each advisor round
	// (core.Options.Parallelism).
	Parallelism int

	// WALDir enables the durability layer when the server is started
	// through Recover: the directory holding the write-ahead log and
	// its checkpoints. Empty = no durability (New never opens a WAL).
	WALDir string
	// SyncPolicy selects when commits reach stable storage
	// (wal.SyncAlways / SyncBatched / SyncOff; the zero value is
	// SyncAlways).
	SyncPolicy wal.SyncPolicy
	// CheckpointBytes triggers an automatic checkpoint from the tuning
	// loop's ticker once the WAL grows past it (0 = 64 MiB).
	CheckpointBytes int64
	// SegmentBytes rolls the WAL into sealed segments once the active
	// file outgrows it (0 = single-file log). Segmentation is what lets
	// checkpoints archive history instead of deleting it.
	SegmentBytes int64
	// ArchiveDir, when set, preserves checkpointed-away WAL segments
	// and LSN-stamped checkpoint copies instead of deleting them — the
	// retention replication catch-up and point-in-time restore read
	// from. Same filesystem as WALDir.
	ArchiveDir string
	// Replica starts the server as a read-only replication follower:
	// mutations are refused with ErrReadOnly and the tuner refuses to
	// run, so the only records entering its log are the ones the
	// follower appends from the primary's stream. Promote flips the
	// server into a writable primary.
	Replica bool
}

// WithDefaults returns the configuration with every zero field
// replaced by its documented default — the one source of those values
// (the sharded cluster's tuner reads them through it too).
func (c Config) WithDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.DecayFactor <= 0 || c.DecayFactor >= 1 {
		c.DecayFactor = 0.7
	}
	if c.DecayFloor <= 0 {
		c.DecayFloor = 0.25
	}
	if c.Algorithm == "" {
		c.Algorithm = core.AlgoTopDownFull
	}
	if c.BuildAfter <= 0 {
		c.BuildAfter = 2
	}
	if c.DropAfter <= 0 {
		c.DropAfter = 3
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 64 << 20
	}
	return c
}

// gate is the in-flight statement barrier deferred drops wait on:
// statements enter the current epoch's WaitGroup; a barrier swaps in a
// fresh epoch and waits only for the statements that entered before the
// swap, so continuous traffic cannot stall a drop forever.
type gate struct {
	mu sync.Mutex
	wg *sync.WaitGroup
}

func (g *gate) enter() *sync.WaitGroup {
	g.mu.Lock()
	wg := g.wg
	wg.Add(1)
	g.mu.Unlock()
	return wg
}

// barrier blocks until every statement in flight at call time finishes.
func (g *gate) barrier() {
	g.mu.Lock()
	old := g.wg
	g.wg = &sync.WaitGroup{}
	g.mu.Unlock()
	old.Wait()
}

// Server is the concurrent serving daemon core.
type Server struct {
	cfg Config

	db  *storage.Database
	opt *optimizer.Optimizer
	cat *engine.Catalog
	eng *engine.Engine
	mgr *xindex.Manager

	capture *workload.Capture

	// wal, when non-nil (servers started through Recover), is the
	// write-ahead log every commit appends its write set to (txnPrepare)
	// before publishing it.
	wal    *wal.Log
	walDir string

	admit  chan struct{} // bounds statements in the system
	slots  chan struct{} // bounds statements executing
	flight gate          // in-flight barrier for deferred drops

	// commitGate quiesces transaction commits: every commit holds the
	// read side, checkpoint/snapshot hold the write side to observe a
	// stable point-in-time image. Commits never block each other here.
	commitGate sync.RWMutex

	// txnSeq issues WAL framing IDs for multi-op transactions. The
	// commit/abort/conflict counters live on met (metrics.go): the
	// registry is the single source of truth and TxnStats reads it.
	txnSeq atomic.Uint64

	// met is the server's observability bundle: the metrics registry,
	// the serving layer's counter/histogram handles, and the trace ring.
	met *serverMetrics

	// reorderBuffered/reorderPeak snapshot the recovery applier's
	// stamp-reorder counters (frames that arrived ahead of a stamp gap
	// during replay); set once by Recover, read by TxnStats and the
	// registry's gauges.
	reorderBuffered atomic.Uint64
	reorderPeak     atomic.Uint64

	sessMu   sync.Mutex
	sessions int
	nextSess int64

	tuner  *Tuner // its lock also orders checkpoints against catalog changes
	closed atomic.Bool

	// readOnly marks a replication follower (mutations refused until
	// Promote); fenced marks a deposed primary that has seen a newer
	// epoch (mutations refused forever).
	readOnly atomic.Bool
	fenced   atomic.Bool
}

// New creates a server over a database: a live (incrementally
// maintained) optimizer, an initially empty index catalog, and an
// engine wired to both.
func New(db *storage.Database, cfg Config) *Server {
	cfg = cfg.WithDefaults()
	opt := optimizer.NewLive(db)
	cat := engine.NewCatalog()
	s := &Server{
		cfg:     cfg,
		db:      db,
		opt:     opt,
		cat:     cat,
		eng:     engine.New(db, opt, cat),
		capture: workload.NewCapture(workload.DefaultCaptureSize),
		met:     newServerMetrics(),
		admit:   make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
	}
	s.flight.wg = &sync.WaitGroup{}
	s.mgr = xindex.NewManager(db, cat, s.flight.barrier)
	s.tuner = NewTuner(cfg, s.met.tunerRounds, s.met.tunerSkipped)
	if cfg.Replica {
		s.readOnly.Store(true)
	}
	// Wire the layers below into the server's registry, and bridge the
	// state they already maintain through pull-style gauges.
	db.InstrumentWith(s.met.reg)
	s.mgr.InstrumentWith(s.met.reg)
	obs.RegisterRuntime(s.met.reg)
	s.met.reg.GaugeFunc("xixa_sessions_open", func() float64 {
		s.sessMu.Lock()
		defer s.sessMu.Unlock()
		return float64(s.sessions)
	})
	s.met.reg.GaugeFunc("xixa_capture_statements", func() float64 { return float64(s.capture.Len()) })
	s.met.reg.GaugeFunc("xixa_index_definitions", func() float64 { return float64(len(s.cat.Definitions())) })
	s.met.reg.GaugeFunc("xixa_replay_reorder_buffered", func() float64 { return float64(s.reorderBuffered.Load()) })
	s.met.reg.GaugeFunc("xixa_replay_reorder_peak", func() float64 { return float64(s.reorderPeak.Load()) })
	s.met.reg.GaugeFunc("xixa_stats_folds_total", func() float64 {
		folds, _ := s.opt.StatsFoldCounts()
		return float64(folds)
	})
	s.met.reg.GaugeFunc("xixa_stats_path_rebuilds_total", func() float64 {
		_, rebuilds := s.opt.StatsFoldCounts()
		return float64(rebuilds)
	})
	return s
}

// writable reports whether the server may accept a mutation right now.
func (s *Server) writable() error {
	if s.fenced.Load() {
		return ErrFenced
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// ReadOnly reports that the server is a not-yet-promoted replica.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Fenced reports that the server has been fenced by a newer primary
// epoch.
func (s *Server) Fenced() bool { return s.fenced.Load() }

// Fence permanently refuses mutations: a newer primary epoch exists,
// and a zombie primary accepting writes would fork history. Reads keep
// working — a fenced server is a stale replica, not a corpse.
func (s *Server) Fence() { s.fenced.Store(true) }

// Promote flips a read-only replica into a writable primary: mutations
// are accepted, and their commits append to the log the stream used to
// feed. The caller — replica.Follower.Promote — has already stopped the
// stream and truncated any unterminated transaction frame from the log.
// Promoting a server that is not a replica is a no-op.
func (s *Server) Promote() { s.readOnly.Store(false) }

// WALDir returns the durability directory ("" without durability).
func (s *Server) WALDir() string { return s.walDir }

// DB returns the underlying database.
func (s *Server) DB() *storage.Database { return s.db }

// Optimizer returns the server's live optimizer.
func (s *Server) Optimizer() *optimizer.Optimizer { return s.opt }

// Catalog returns the materialized index catalog.
func (s *Server) Catalog() *engine.Catalog { return s.cat }

// Capture returns the live workload capture ring.
func (s *Server) Capture() *workload.Capture { return s.capture }

// Manager returns the online index lifecycle manager.
func (s *Server) Manager() *xindex.Manager { return s.mgr }

// TableStatsSnapshot returns an independently-owned statistics snapshot
// for a table, safe to merge into a cross-server synopsis while this
// server keeps serving writes. The sharded stats plane reads each
// shard's tables through this hook.
func (s *Server) TableStatsSnapshot(table string) (*xstats.TableStats, error) {
	return s.opt.SnapshotTableStats(table)
}

// Session is one client's handle on the server, carrying per-session
// execution statistics. Sessions are safe for concurrent use, though
// clients typically issue one statement at a time.
type Session struct {
	srv *Server
	id  int64

	mu       sync.Mutex
	stats    engine.Stats
	executed int64
	errors   int64
	retries  int64         // auto-commit conflict retries charged to this session
	backoff  time.Duration // cumulative conflict backoff slept by this session
	closed   bool
}

// NewSession opens a session, failing with ErrTooManySessions past the
// cap.
func (s *Server) NewSession() (*Session, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sessions >= s.cfg.MaxSessions {
		return nil, ErrTooManySessions
	}
	s.sessions++
	s.nextSess++
	s.met.sessions.Inc()
	return &Session{srv: s, id: s.nextSess}, nil
}

// Close releases the session's slot. Closing twice is a no-op.
func (sess *Session) Close() {
	sess.mu.Lock()
	wasClosed := sess.closed
	sess.closed = true
	sess.mu.Unlock()
	if wasClosed {
		return
	}
	sess.srv.sessMu.Lock()
	sess.srv.sessions--
	sess.srv.sessMu.Unlock()
}

// Stats returns the session's accumulated execution statistics and the
// number of statements executed and failed.
func (sess *Session) Stats() (engine.Stats, int64, int64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.stats, sess.executed, sess.errors
}

// RetryStats returns the session's cumulative first-writer-wins
// conflict retries and the total backoff time slept between them.
func (sess *Session) RetryStats() (retries int64, backoff time.Duration) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.retries, sess.backoff
}

// Result is one statement's outcome.
type Result struct {
	// Refs are the bound result nodes (queries only).
	Refs []xindex.Ref
	// Stats are the execution work counters.
	Stats engine.Stats
}

// Execute parses and executes one statement. When the statement lands
// in the tracer's sample, the trace carries a parse span ahead of the
// execution phases.
func (sess *Session) Execute(raw string) (*Result, error) {
	return sess.execute(raw, nil)
}

// execute is the parse step shared by Session.Execute and Txn.Execute.
func (sess *Session) execute(raw string, tx *engine.Txn) (*Result, error) {
	qt := sess.srv.met.tracer.Sample(raw)
	var parseStart time.Time
	if qt != nil {
		parseStart = time.Now()
	}
	stmt, err := xquery.Parse(raw)
	if qt != nil {
		qt.Span("parse", time.Since(parseStart), 0)
	}
	if err != nil {
		qt.Finish(err)
		return nil, err
	}
	return sess.executeStmt(stmt, tx, qt)
}

// ExecuteStmt executes a parsed statement under admission control: it
// fails fast with ErrOverloaded when the bounded work queue is full,
// otherwise waits for an execution slot. Queries run concurrently;
// mutating statements run as auto-commit MVCC transactions (retried
// transparently on write-write conflict), so writers on disjoint
// documents commit in parallel. Every successful execution is sampled
// into the workload capture ring.
func (sess *Session) ExecuteStmt(stmt *xquery.Statement) (*Result, error) {
	return sess.executeStmt(stmt, nil, sess.srv.met.tracer.Sample(stmt.Raw))
}

// executeStmt is the one admission and accounting path every statement
// takes. What runs the statement depends on where it arrived: inside
// the explicit transaction tx when that is non-nil, otherwise as an
// auto-commit query or an auto-commit mutation with conflict retry. qt
// is the statement's sampled trace (usually nil); the statement
// counters and the latency histogram run on every call regardless.
func (sess *Session) executeStmt(stmt *xquery.Statement, tx *engine.Txn, qt *obs.QueryTrace) (*Result, error) {
	s := sess.srv
	if s.closed.Load() {
		qt.Finish(ErrClosed)
		return nil, ErrClosed
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.met.overloaded.Inc()
		qt.Finish(ErrOverloaded)
		return nil, ErrOverloaded
	}
	defer func() { <-s.admit }()

	s.slots <- struct{}{} // bounded wait for an execution slot
	defer func() { <-s.slots }()

	wg := s.flight.enter()
	defer wg.Done()

	start := time.Now()
	var refs []xindex.Ref
	var st engine.Stats
	var err error
	if stmt.Kind != xquery.Query {
		err = s.writable()
	}
	switch {
	case err != nil: // refused: a read-only replica or a fenced primary
	case tx != nil:
		refs, st, err = tx.ExecuteTraced(stmt, qt)
	case stmt.Kind != xquery.Query:
		// Mutations run as single-statement transactions: snapshot,
		// buffered writes, first-writer-wins commit, automatic retry on
		// conflict (txn.go). The durability wait happens after the
		// commit publishes: while this session waits for the group
		// fsync, other writers commit and append behind it, so one
		// fsync covers the whole batch (group commit) and commit
		// throughput scales with batch size instead of disk latency.
		refs, st, err = s.executeTxn(stmt, sess, qt)
	default:
		refs, st, err = s.eng.ExecuteTraced(stmt, qt)
	}
	s.met.stmtSeconds.Observe(time.Since(start).Seconds())
	qt.Finish(err)
	sess.mu.Lock()
	if err != nil {
		sess.errors++
	} else {
		sess.stats.Add(st)
		sess.executed++
	}
	sess.mu.Unlock()
	if err != nil {
		s.met.stmtErrors.Inc()
		return nil, err
	}
	s.met.statements.Inc()
	s.capture.Observe(stmt, 1)
	// A traced statement's estimated-vs-actual plan-node cardinalities
	// feed the capture ring's calibration aggregates (workload.CardStats)
	// — the signal a future cost-model feedback round consumes.
	if qt != nil {
		if nodes := qt.Nodes(); len(nodes) != 0 {
			s.capture.ObserveCards(cardObservations(nodes))
		}
	}
	return &Result{Refs: refs, Stats: st}, nil
}

// Explain returns the plan the optimizer would choose for the
// statement under the current index configuration, without executing.
func (sess *Session) Explain(raw string) (*optimizer.Plan, error) {
	stmt, err := xquery.Parse(raw)
	if err != nil {
		return nil, err
	}
	return sess.srv.opt.EvaluateIndexes(stmt, sess.srv.cat.Definitions())
}

// Close shuts the server down: the autonomous tuning loop stops, new
// statements are rejected with ErrClosed, in-flight statements drain,
// every online-built index releases its change-feed subscription — the
// database is caller-owned and may outlive the server, and a dead
// server's indexes must not keep taxing its mutations — and the log
// flushes, fsyncs, and closes. Close does NOT checkpoint; a shutdown
// without one simply leaves a longer tail for the next Recover to
// replay.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.StopAutoTune()
	s.flight.barrier()
	for _, def := range s.cat.Definitions() {
		if idx, ok := s.cat.Get(def); ok {
			idx.Release()
		}
	}
	if s.wal != nil {
		s.wal.Close()
	}
}

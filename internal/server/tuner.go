package server

import (
	"fmt"
	"sync"
	"time"

	"xixa/internal/core"
	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/workload"
	"xixa/internal/xindex"
)

// Tuner is the autonomous tuning loop, written once for a server and a
// sharded cluster: the state that survives between rounds, the round's
// shared steps (Round), and the ticker/stop runner (StartTuner, Stop).
// Its mutex serializes rounds — manual and autonomous — with each other
// and with whatever else the owner orders against catalog changes (the
// server's checkpoints).
type Tuner struct {
	sync.Mutex
	cfg           Config // defaults applied: the advisor knobs
	rounds, skips *obs.Counter

	round      int
	hyst       optimizer.Hysteresis
	stop, done chan struct{}
}

// After every round each captured statement's weight is multiplied by
// decayFactor, and an entry whose weight falls below decayFloor
// evaporates: traffic that stopped arriving leaves the workload.
const (
	decayFactor = 0.7
	decayFloor  = 0.25
)

// NewTuner creates a tuner with cfg's knobs (defaults applied) that
// counts rounds and skipped rounds on the given counters.
func NewTuner(cfg Config, rounds, skips *obs.Counter) *Tuner {
	hyst := optimizer.Hysteresis{BuildAfter: cfg.BuildAfter, DropAfter: cfg.DropAfter}
	return &Tuner{cfg: cfg, rounds: rounds, skips: skips, hyst: hyst}
}

// TuneInputs is what an owner supplies to one round — everything that
// differs between a server tuning its catalog and a cluster tuning one
// per shard.
type TuneInputs struct {
	// Workload is the captured workload to advise on; Captures are the
	// rings it came from, decayed after the round so traffic that
	// stopped arriving fades from future ones.
	Workload *workload.Workload
	Captures []*workload.Capture
	// Costing returns the optimizer that costs candidate configurations
	// and the database it resolves tables against; it is called only
	// for a non-empty workload.
	Costing func() (*storage.Database, *optimizer.Optimizer, error)
	// Baseline is the configuration hysteresis treats as already built.
	Baseline []xindex.Definition
	// Apply carries out the changes whose streaks matured and returns
	// what was actually materialized and dropped.
	Apply func(build, drop []xindex.Definition) (built, dropped []xindex.Definition, err error)
}

// TuneReport is the outcome of one tuning round.
type TuneReport struct {
	Round int
	// Skipped reports that the round did nothing because no workload
	// has been captured yet.
	Skipped bool
	// WorkloadSize is the number of unique captured statements fed to
	// the advisor.
	WorkloadSize int
	// Recommended is the advisor's configuration for this round.
	Recommended []xindex.Definition
	// Built and Dropped are the definitions actually materialized and
	// dropped this round, after hysteresis.
	Built   []xindex.Definition
	Dropped []xindex.Definition
	// PendingBuild and PendingDrop count definitions accumulating
	// streak toward a future build or drop.
	PendingBuild int
	PendingDrop  int
	// Benefit is the advisor's estimated workload benefit of the
	// recommended configuration.
	Benefit float64
	Elapsed time.Duration
}

// String renders the report as one log line.
func (r *TuneReport) String() string {
	if r.Skipped {
		return fmt.Sprintf("tune round %d: skipped (no captured workload)", r.Round)
	}
	return fmt.Sprintf("tune round %d: %d stmts -> %d recommended, built %d, dropped %d (pending %d/%d) in %v",
		r.Round, r.WorkloadSize, len(r.Recommended), len(r.Built), len(r.Dropped),
		r.PendingBuild, r.PendingDrop, r.Elapsed.Round(time.Millisecond))
}

// Round runs one tuning round: advise on the workload under the
// configured budget, diff the recommendation against the baseline,
// apply hysteresis, hand the definitions whose streaks matured to
// in.Apply, and decay the captures. The caller holds the tuner's lock.
func (t *Tuner) Round(in TuneInputs) (*TuneReport, error) {
	start := time.Now()
	t.round++
	t.rounds.Inc()
	rep := &TuneReport{Round: t.round, WorkloadSize: in.Workload.Len()}
	if rep.WorkloadSize == 0 {
		rep.Skipped = true
		t.skips.Inc()
		return rep, nil
	}

	db, opt, err := in.Costing()
	if err != nil {
		return rep, err
	}
	rec, err := core.Advise(db, opt, in.Workload, core.DefaultOptions(), t.cfg.Algorithm, t.cfg.Budget)
	if err != nil {
		return rep, err
	}
	rep.Recommended, rep.Benefit = rec.Definitions(), rec.Benefit

	build, drop := t.hyst.Step(optimizer.DiffConfigs(in.Baseline, rep.Recommended))
	rep.PendingBuild, rep.PendingDrop = t.hyst.Pending()
	if rep.Built, rep.Dropped, err = in.Apply(build, drop); err != nil {
		return rep, err
	}
	for _, c := range in.Captures {
		c.Decay(decayFactor, decayFloor)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// StartTuner launches t's autonomous loop: every interval it runs
// round under the tuner's lock and delivers the outcome to observe
// (which may be nil) outside it. It is a no-op if the interval is zero
// or a loop is already running. R is the owner's report type.
func StartTuner[R any](t *Tuner, interval time.Duration, round func() (R, error), observe func(R, error)) {
	t.Lock()
	defer t.Unlock()
	if interval <= 0 || t.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	t.stop, t.done = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				t.Lock()
				rep, err := round()
				t.Unlock()
				if observe != nil {
					observe(rep, err)
				}
			}
		}
	}()
}

// Stop stops the autonomous loop and waits for the in-progress round,
// if any, to finish.
func (t *Tuner) Stop() {
	t.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// applyTune is the server's TuneInputs.Apply: online builds and
// deferred drops, logged to the WAL.
func (s *Server) applyTune(build, drop []xindex.Definition) (built, dropped []xindex.Definition, err error) {
	built, dropped, err = s.mgr.Reconcile(build, drop)
	if err != nil || s.wal == nil || len(built)+len(dropped) == 0 {
		return built, dropped, err
	}
	// Catalog changes are logged like any other mutation: a crash after
	// this round recovers the same index configuration the tuner left.
	// Ordering against transaction commits is version-safe without any
	// extra locking: an index-create record only ever replays onto the
	// committed document state the preceding WAL records rebuilt, and
	// recovery rebuilds the index through the online build path — so a
	// create interleaved between two transactions' records indexes
	// exactly the first's effects, same as the live BuildOnline did
	// (its SubscribeScan cut never splits a commit's per-table batch).
	payloads := make([][]byte, 0, len(built)+len(dropped))
	for _, def := range built {
		payloads = append(payloads, wal.EncodeIndexCreate(def))
	}
	for _, def := range dropped {
		payloads = append(payloads, wal.EncodeIndexDrop(def))
	}
	lsn, err := s.wal.AppendTxn(payloads)
	if err != nil {
		return built, dropped, err
	}
	return built, dropped, s.wal.Commit(lsn)
}

// TuneOnce runs one tuning round (Tuner.Round) over the live capture
// and optimizer, with the materialized catalog as the baseline.
//
// TuneOnce serializes with itself (the autonomous loop and manual
// calls share the tuner) and must not be called from inside statement
// execution — deferred drops wait for in-flight statements to drain.
func (s *Server) TuneOnce() (*TuneReport, error) {
	s.tuner.Lock()
	defer s.tuner.Unlock()
	return s.tuneLocked()
}

func (s *Server) tuneLocked() (*TuneReport, error) {
	// A replica's catalog is driven by the primary's index records; a
	// locally tuned configuration would diverge from the stream (and
	// its create/drop records would collide with the LSNs the stream
	// appends). A fenced ex-primary must not mutate its catalog either.
	if err := s.writable(); err != nil {
		return nil, err
	}
	return s.tuner.Round(TuneInputs{
		Workload: s.capture.Workload(),
		Captures: []*workload.Capture{s.capture},
		Costing:  func() (*storage.Database, *optimizer.Optimizer, error) { return s.db, s.opt, nil },
		Baseline: s.cat.Definitions(),
		Apply:    s.applyTune,
	})
}

// StartAutoTune launches the autonomous tuning loop at the configured
// TuneInterval, delivering each round's report (and error, if any) to
// observe, which may be nil. It is a no-op if the interval is zero or
// a loop is already running.
func (s *Server) StartAutoTune(observe func(*TuneReport, error)) {
	StartTuner(s.tuner, s.cfg.TuneInterval, s.tuneLocked, observe)
}

// StopAutoTune stops the autonomous loop and waits for the in-progress
// round, if any, to finish.
func (s *Server) StopAutoTune() { s.tuner.Stop() }

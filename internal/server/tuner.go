package server

import (
	"fmt"
	"time"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/xindex"
)

// tuner holds the autonomous tuning loop's state between rounds: the
// round counter and the build/drop hysteresis streaks.
type tuner struct {
	round int
	hyst  optimizer.Hysteresis
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
	// Checkpointed reports that the autonomous loop wrote a checkpoint
	// after this round because the WAL grew past CheckpointBytes.
	Checkpointed bool
	Elapsed      time.Duration
}

// String renders the report as one log line.
func (r *TuneReport) String() string {
	if r.Skipped {
		return fmt.Sprintf("tune round %d: skipped (no captured workload)", r.Round)
	}
	suffix := ""
	if r.Checkpointed {
		suffix = " [checkpointed]"
	}
	return fmt.Sprintf("tune round %d: %d stmts -> %d recommended, built %d, dropped %d (pending %d/%d) in %v%s",
		r.Round, r.WorkloadSize, len(r.Recommended), len(r.Built), len(r.Dropped),
		r.PendingBuild, r.PendingDrop, r.Elapsed.Round(time.Millisecond), suffix)
}

// TuneOnce runs one tuning round: snapshot the captured workload, run
// the advisor on it under the configured budget, diff the
// recommendation against the materialized catalog, apply hysteresis,
// and schedule online builds and deferred drops for the definitions
// whose streaks matured. The capture decays afterwards, so traffic
// that stopped arriving fades from future rounds.
//
// TuneOnce serializes with itself (the autonomous loop and manual
// calls share the tuner) and must not be called from inside statement
// execution — deferred drops wait for in-flight statements to drain.
func (s *Server) TuneOnce() (*TuneReport, error) {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	return s.tuneOnceLocked()
}

func (s *Server) tuneOnceLocked() (*TuneReport, error) {
	// A replica's catalog is driven by the primary's index records; a
	// locally tuned configuration would diverge from the stream (and
	// try to log create/drop records into a sink-less WAL). A fenced
	// ex-primary must not mutate its catalog either.
	if err := s.writable(); err != nil {
		return nil, err
	}
	start := time.Now()
	t := &s.tuner
	t.round++
	s.met.tunerRounds.Inc()
	rep := &TuneReport{Round: t.round}

	w := s.capture.Workload()
	if w.Len() == 0 {
		rep.Skipped = true
		s.met.tunerSkipped.Inc()
		return rep, nil
	}
	rep.WorkloadSize = w.Len()

	opts := core.DefaultOptions()
	opts.Parallelism = s.cfg.Parallelism
	rec, err := core.Advise(s.db, s.opt, w, opts, s.cfg.Algorithm, s.cfg.Budget)
	if err != nil {
		return rep, err
	}
	rep.Recommended = rec.Definitions()
	rep.Benefit = rec.Benefit

	buildNow, dropNow := t.hyst.Step(optimizer.DiffConfigs(s.cat.Definitions(), rep.Recommended))
	rep.PendingBuild, rep.PendingDrop = t.hyst.Pending()

	built, dropped, err := s.mgr.Reconcile(buildNow, dropNow)
	rep.Built = built
	rep.Dropped = dropped
	if err != nil {
		return rep, err
	}

	// Catalog changes are logged like any other mutation: a crash after
	// this round recovers the same index configuration the tuner left.
	// Ordering against transaction commits is version-safe without any
	// extra locking: an index-create record only ever replays onto the
	// committed document state the preceding WAL records rebuilt, and
	// recovery rebuilds the index through the online build path — so a
	// create interleaved between two transactions' frames indexes
	// exactly the first's effects, same as the live BuildOnline did
	// (its SubscribeScan cut never splits a commit's per-table batch).
	if s.wal != nil && len(built)+len(dropped) > 0 {
		var lsn uint64
		for _, def := range built {
			if lsn, err = s.wal.AppendIndexCreate(def); err != nil {
				return rep, err
			}
		}
		for _, def := range dropped {
			if lsn, err = s.wal.AppendIndexDrop(def); err != nil {
				return rep, err
			}
		}
		if err := s.wal.Commit(lsn); err != nil {
			return rep, err
		}
	}

	s.capture.Decay(s.cfg.DecayFactor, s.cfg.DecayFloor)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// StartAutoTune launches the autonomous tuning loop at the configured
// TuneInterval, delivering each round's report (and error, if any) to
// observe, which may be nil. It is a no-op if the interval is zero or
// a loop is already running.
func (s *Server) StartAutoTune(observe func(*TuneReport, error)) {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.cfg.TuneInterval <= 0 || s.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.loopStop, s.loopDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.cfg.TuneInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.loopMu.Lock()
				if s.closed.Load() {
					s.loopMu.Unlock()
					return
				}
				rep, err := s.tuneOnceLocked()
				// The loop's ticker doubles as the checkpoint trigger:
				// once the WAL grows past the threshold, fold a
				// checkpoint into the round so replay-on-recovery stays
				// bounded no matter how long the daemon runs.
				if s.wal != nil && s.wal.SizeBytes() >= s.cfg.CheckpointBytes {
					cerr := s.checkpointLocked()
					if cerr == nil {
						rep.Checkpointed = true
					} else if err == nil {
						err = cerr
					}
				}
				s.loopMu.Unlock()
				if observe != nil {
					observe(rep, err)
				}
			}
		}
	}()
}

// StopAutoTune stops the autonomous loop and waits for the in-progress
// round, if any, to finish.
func (s *Server) StopAutoTune() {
	s.loopMu.Lock()
	stop, done := s.loopStop, s.loopDone
	s.loopStop, s.loopDone = nil, nil
	s.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

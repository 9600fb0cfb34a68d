package shard

import (
	"fmt"
	"time"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// clusterTuner is the shard-aware tuning round's state. Hysteresis
// operates on the cluster-level target configuration — the set of
// definitions the advisor has recommended persistently enough to
// deserve materialization — and each round reconciles every shard
// toward that target (filtered by the placement policy), so a shard
// whose data drifts into or out of an index's pattern converges on
// later rounds without new recommendations.
type clusterTuner struct {
	round  int
	hyst   optimizer.Hysteresis
	target map[string]xindex.Definition
}

func (t *clusterTuner) targetList() []xindex.Definition {
	out := make([]xindex.Definition, 0, len(t.target))
	for _, def := range t.target {
		out = append(out, def)
	}
	xindex.SortDefinitions(out)
	return out
}

// ShardTune is one shard's share of a tuning round's outcome.
type ShardTune struct {
	Shard   int
	Built   []xindex.Definition
	Dropped []xindex.Definition
}

// TuneReport is the outcome of one cluster tuning round.
type TuneReport struct {
	Round int
	// Skipped reports that no workload has been captured yet.
	Skipped bool
	// WorkloadSize counts unique statements in the merged workload.
	WorkloadSize int
	// Recommended is the advisor's configuration from the merged
	// statistics this round; Target is the post-hysteresis cluster
	// configuration the shards were reconciled toward.
	Recommended []xindex.Definition
	Target      []xindex.Definition
	// PerShard is each shard's materialization activity this round.
	PerShard []ShardTune
	// PendingBuild and PendingDrop count definitions accumulating
	// streak toward entering or leaving the target.
	PendingBuild int
	PendingDrop  int
	// Benefit is the advisor's estimated workload benefit.
	Benefit float64
	Elapsed time.Duration
}

// String renders the report as one log line.
func (r *TuneReport) String() string {
	if r.Skipped {
		return fmt.Sprintf("cluster tune round %d: skipped (no captured workload)", r.Round)
	}
	built, dropped := 0, 0
	for _, st := range r.PerShard {
		built += len(st.Built)
		dropped += len(st.Dropped)
	}
	return fmt.Sprintf("cluster tune round %d: %d stmts -> %d recommended, target %d, built %d, dropped %d across %d shards (pending %d/%d) in %v",
		r.Round, r.WorkloadSize, len(r.Recommended), len(r.Target), built, dropped,
		len(r.PerShard), r.PendingBuild, r.PendingDrop, r.Elapsed.Round(time.Millisecond))
}

// MergedCapture merges every shard's capture ring into one
// frequency-weighted ring — the global workload plane. Decay epochs
// are aligned by workload.Capture.Merge, so shards that decayed a
// different number of rounds combine with comparable weights.
func (c *Cluster) MergedCapture() *workload.Capture {
	m := workload.NewCapture(c.cfg.Server.CaptureSize * c.n)
	for _, srv := range c.shards {
		m.Merge(srv.Capture())
	}
	return m
}

// MergedWorkload is the advisor's view of the cluster workload: the
// merged capture, with scattered statements' frequencies divided by
// the shard count. A statement the router fans out is observed once
// per shard per client execution, while a routed statement is
// observed once; un-dividing restores client-side frequencies, so the
// advisor — which costs each statement against the merged full-data
// statistics — doesn't overweight scans N-fold against point queries.
func (c *Cluster) MergedWorkload() *workload.Workload {
	w := c.MergedCapture().Workload()
	if c.n == 1 {
		return w
	}
	for i := range w.Items {
		it := &w.Items[i]
		if it.Stmt.Kind == xquery.Insert {
			continue // inserts always route to one shard
		}
		if _, pinned := c.pinnedShard(it.Stmt); pinned {
			continue
		}
		if f := (it.Freq + c.n/2) / c.n; f > 1 {
			it.Freq = f
		} else {
			it.Freq = 1
		}
	}
	return w
}

// MergedTableStats merges every shard's synopsis for a table into one
// full-data synopsis over a fresh dictionary — the statistics plane
// the global advisor costs configurations from. Each shard's snapshot
// is cloned under its keeper's lock (server.TableStatsSnapshot), so
// the merge is consistent while traffic continues. The merged Version
// is the sum of shard versions: monotone as any shard's data evolves.
func (c *Cluster) MergedTableStats(table string) (*xstats.TableStats, error) {
	merged, _, err := c.mergedTableStats(table)
	return merged, err
}

func (c *Cluster) mergedTableStats(table string) (*xstats.TableStats, []*xstats.TableStats, error) {
	perShard := make([]*xstats.TableStats, c.n)
	var version int64
	for i, srv := range c.shards {
		ts, err := srv.TableStatsSnapshot(table)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		perShard[i] = ts
		version += ts.Version
	}
	merged := xstats.FromDelta(table, 0, xstats.NewDelta(xmltree.NewPathDict()))
	var err error
	for _, ts := range perShard {
		if merged, err = merged.Merge(ts, version); err != nil {
			return nil, nil, err
		}
	}
	return merged, perShard, nil
}

// TuneOnce runs one shard-aware tuning round: merge the per-shard
// captures and statistics, advise a global configuration from them,
// admit changes through build/drop hysteresis into the cluster
// target, and reconcile every shard's index set toward that target
// under the placement policy. Shard captures decay afterwards — all
// of them, keeping their decay epochs aligned.
func (c *Cluster) TuneOnce() (*TuneReport, error) {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	return c.tuneOnceLocked()
}

func (c *Cluster) tuneOnceLocked() (*TuneReport, error) {
	start := time.Now()
	t := &c.tuner
	t.round++
	c.met.tunerRounds.Inc()
	rep := &TuneReport{Round: t.round}

	w := c.MergedWorkload()
	if w.Len() == 0 {
		rep.Skipped = true
		return rep, nil
	}
	rep.WorkloadSize = w.Len()

	// Merge every table's per-shard synopses; keep the per-shard
	// snapshots for the placement policy's locality check.
	stats := make(map[string]*xstats.TableStats)
	local := make(map[string][]*xstats.TableStats)
	for _, name := range c.TableNames() {
		merged, perShard, err := c.mergedTableStats(name)
		if err != nil {
			return rep, err
		}
		stats[name] = merged
		local[name] = perShard
	}

	// The advisor costs candidate configurations exactly as it would
	// unsharded, but against the merged synopsis — full data, full
	// workload — so its recommendation is the global one. The database
	// handle anchors table resolution only; costing never reads
	// documents.
	opt := optimizer.New(c.dbs[0], stats)
	opts := core.DefaultOptions()
	opts.Parallelism = c.cfg.Server.Parallelism
	rec, err := core.Advise(c.dbs[0], opt, w, opts, c.cfg.Server.Algorithm, c.cfg.Server.Budget)
	if err != nil {
		return rep, err
	}
	rep.Recommended = rec.Definitions()
	rep.Benefit = rec.Benefit

	// Hysteresis over the cluster target: a definition enters after
	// buildAfter consecutive recommendations, leaves after dropAfter
	// consecutive absences — same discipline as the single-server
	// tuner, but against the cluster-level target instead of one
	// catalog, since per-shard catalogs legitimately differ under
	// PolicyPerShard.
	enter, leave := t.hyst.Step(optimizer.DiffConfigs(t.targetList(), rep.Recommended))
	for _, def := range enter {
		t.target[def.Key()] = def
	}
	for _, def := range leave {
		delete(t.target, def.Key())
	}
	rep.PendingBuild, rep.PendingDrop = t.hyst.Pending()
	rep.Target = t.targetList()

	// Reconcile every shard toward the target. PolicyPerShard skips
	// building where the shard's own synopsis shows no entries for
	// the pattern — that shard would pay maintenance for an index
	// nothing probes — and re-evaluates each round, so data drifting
	// onto a shard brings the index with it (and a shard whose
	// matching data vanished drops it).
	for i, srv := range c.shards {
		var build, drop []xindex.Definition
		for _, def := range rep.Target {
			if c.cfg.Policy == PolicyPerShard && !shardHasEntries(local[def.Table], i, def) {
				drop = append(drop, def)
				continue
			}
			build = append(build, def)
		}
		// Definitions a shard materialized that left the target are
		// dropped by reconciling against the shard's own catalog.
		for _, def := range srv.Catalog().Definitions() {
			if _, ok := t.target[def.Key()]; !ok {
				drop = append(drop, def)
			}
		}
		built, dropped, err := srv.Manager().Reconcile(build, drop)
		rep.PerShard = append(rep.PerShard, ShardTune{Shard: i, Built: built, Dropped: dropped})
		c.met.tunerBuilds.Add(uint64(len(built)))
		c.met.tunerDrops.Add(uint64(len(dropped)))
		if err != nil {
			return rep, err
		}
	}

	for _, srv := range c.shards {
		srv.Capture().Decay(c.cfg.Server.DecayFactor, c.cfg.Server.DecayFloor)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// shardHasEntries reports whether shard i's local synopsis has any
// entries matching the definition's pattern and type.
func shardHasEntries(perShard []*xstats.TableStats, i int, def xindex.Definition) bool {
	if perShard == nil || perShard[i] == nil {
		return false
	}
	return perShard[i].ForPattern(def.Pattern, def.Type).Entries > 0
}

// StartAutoTune launches the cluster's autonomous tuning loop at the
// configured TuneInterval, delivering each round's report (and error)
// to observe, which may be nil. No-op if the interval is zero or a
// loop is already running.
func (c *Cluster) StartAutoTune(observe func(*TuneReport, error)) {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.cfg.TuneInterval <= 0 || c.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.loopStop, c.loopDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(c.cfg.TuneInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.loopMu.Lock()
				if c.closed.Load() {
					c.loopMu.Unlock()
					return
				}
				rep, err := c.tuneOnceLocked()
				c.loopMu.Unlock()
				if observe != nil {
					observe(rep, err)
				}
			}
		}
	}()
}

// StopAutoTune stops the autonomous loop and waits for an in-progress
// round to finish.
func (c *Cluster) StopAutoTune() {
	c.loopMu.Lock()
	stop, done := c.loopStop, c.loopDone
	c.loopStop, c.loopDone = nil, nil
	c.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

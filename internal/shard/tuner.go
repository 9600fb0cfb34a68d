package shard

import (
	"fmt"
	"time"

	"xixa/internal/optimizer"
	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// ShardTune is one shard's share of a tuning round's outcome.
type ShardTune struct {
	Shard   int
	Built   []xindex.Definition
	Dropped []xindex.Definition
}

// TuneReport is the outcome of one cluster tuning round: the shared
// round's report (server.Tuner.Round; Built and Dropped list every
// shard's changes, so a definition built on three shards appears three
// times) plus what only a cluster has.
type TuneReport struct {
	server.TuneReport
	// Target is the post-hysteresis cluster configuration the shards
	// were reconciled toward. PendingBuild and PendingDrop count
	// definitions accumulating streak toward entering or leaving it.
	Target []xindex.Definition
	// PerShard is each shard's materialization activity this round.
	PerShard []ShardTune
}

// String renders the report as one log line.
func (r *TuneReport) String() string {
	if r.Skipped {
		return fmt.Sprintf("cluster tune round %d: skipped (no captured workload)", r.Round)
	}
	return fmt.Sprintf("cluster tune round %d: %d stmts -> %d recommended, target %d, built %d, dropped %d across %d shards (pending %d/%d) in %v",
		r.Round, r.WorkloadSize, len(r.Recommended), len(r.Target), len(r.Built), len(r.Dropped),
		len(r.PerShard), r.PendingBuild, r.PendingDrop, r.Elapsed.Round(time.Millisecond))
}

// MergedCapture merges every shard's capture ring into one
// frequency-weighted ring — the global workload plane. Decay epochs
// are aligned by workload.Capture.Merge, so shards that decayed a
// different number of rounds combine with comparable weights.
func (c *Cluster) MergedCapture() *workload.Capture {
	m := workload.NewCapture(workload.DefaultCaptureSize * c.n)
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

// mergedTableStats merges every shard's synopsis for a table into one
// full-data synopsis over a fresh dictionary — the statistics plane
// the global advisor costs configurations from — and returns the
// per-shard snapshots alongside. Each shard's snapshot
// is cloned under its keeper's lock (server.TableStatsSnapshot), so
// the merge is consistent while traffic continues. The merged Version
// is the sum of shard versions: monotone as any shard's data evolves.
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

// TuneOnce runs one shard-aware tuning round (server.Tuner.Round). The
// workload and the statistics that cost candidate configurations are
// the merged per-shard planes, so the recommendation is the global
// one. Hysteresis operates on the cluster-level target — the set of
// definitions recommended persistently enough to deserve
// materialization — rather than on a catalog, since per-shard catalogs
// legitimately differ under PolicyPerShard; matured changes enter or
// leave the target and every shard is reconciled toward it, so a shard
// whose data drifts into or out of an index's pattern converges on
// later rounds without new recommendations.
func (c *Cluster) TuneOnce() (*TuneReport, error) {
	c.tuner.Lock()
	defer c.tuner.Unlock()
	return c.tuneLocked()
}

func (c *Cluster) tuneLocked() (*TuneReport, error) {
	// local keeps each table's per-shard synopses from the costing step
	// for the placement policy's locality check.
	local := make(map[string][]*xstats.TableStats)
	out := &TuneReport{}
	in := server.TuneInputs{
		Workload: c.MergedWorkload(),
		Baseline: c.targetList(),
		Costing: func() (*storage.Database, *optimizer.Optimizer, error) {
			stats := make(map[string]*xstats.TableStats)
			for _, name := range c.TableNames() {
				merged, perShard, err := c.mergedTableStats(name)
				if err != nil {
					return nil, nil, err
				}
				stats[name], local[name] = merged, perShard
			}
			// The database handle anchors table resolution only; costing
			// never reads documents.
			return c.dbs[0], optimizer.New(c.dbs[0], stats), nil
		},
		Apply: func(enter, leave []xindex.Definition) (built, dropped []xindex.Definition, err error) {
			for _, def := range enter {
				c.target[def.Key()] = def
			}
			for _, def := range leave {
				delete(c.target, def.Key())
			}
			for i := range c.shards {
				st, err := c.reconcileShard(i, local)
				out.PerShard = append(out.PerShard, st)
				built, dropped = append(built, st.Built...), append(dropped, st.Dropped...)
				if err != nil {
					return built, dropped, err
				}
			}
			return built, dropped, nil
		},
	}
	// Every shard's capture decays, keeping their decay epochs aligned.
	for _, srv := range c.shards {
		in.Captures = append(in.Captures, srv.Capture())
	}
	rep, err := c.tuner.Round(in)
	out.TuneReport, out.Target = *rep, c.targetList()
	return out, err
}

// reconcileShard moves shard i's index set toward the cluster target.
// PolicyPerShard skips building where the shard's own synopsis shows
// no entries for the pattern — that shard would pay maintenance for an
// index nothing probes — and re-evaluates each round, so data drifting
// onto a shard brings the index with it (and a shard whose matching
// data vanished drops it).
func (c *Cluster) reconcileShard(i int, local map[string][]*xstats.TableStats) (ShardTune, error) {
	srv := c.shards[i]
	var build, drop []xindex.Definition
	for _, def := range c.targetList() {
		if c.cfg.Policy == PolicyPerShard && !shardHasEntries(local[def.Table], i, def) {
			drop = append(drop, def)
			continue
		}
		build = append(build, def)
	}
	// Definitions a shard materialized that left the target are dropped
	// by reconciling against the shard's own catalog.
	for _, def := range srv.Catalog().Definitions() {
		if _, ok := c.target[def.Key()]; !ok {
			drop = append(drop, def)
		}
	}
	built, dropped, err := srv.Manager().Reconcile(build, drop)
	c.met.tunerBuilds.Add(uint64(len(built)))
	c.met.tunerDrops.Add(uint64(len(dropped)))
	return ShardTune{Shard: i, Built: built, Dropped: dropped}, err
}

// targetList is the cluster target in definition order. The target is
// guarded by the tuner's lock.
func (c *Cluster) targetList() []xindex.Definition {
	out := make([]xindex.Definition, 0, len(c.target))
	for _, def := range c.target {
		out = append(out, def)
	}
	xindex.SortDefinitions(out)
	return out
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
	server.StartTuner(c.tuner, c.cfg.TuneInterval, c.tuneLocked, observe)
}

// StopAutoTune stops the autonomous loop and waits for an in-progress
// round to finish.
func (c *Cluster) StopAutoTune() { c.tuner.Stop() }

package shard

// What a cluster supplies to the line-protocol front end
// (internal/frontend) beyond sessions, tuning and the registry: the
// same hooks a server has, each answered across the shards, plus the
// \shards role.

import (
	"fmt"
	"time"

	"xixa/internal/engine"
	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

// Tracer returns shard 0's query-trace ring: the cluster registry
// carries the router's view, per-shard engine traces stay with each
// shard server.
func (c *Cluster) Tracer() *obs.Tracer { return c.shards[0].Tracer() }

// Indexes lists every shard's materialized catalog, labeled by shard.
func (c *Cluster) Indexes() []server.IndexInfo {
	var out []server.IndexInfo
	for i, srv := range c.shards {
		for _, ix := range srv.Indexes() {
			ix.Label = fmt.Sprintf("shard %d: ", i)
			out = append(out, ix)
		}
	}
	return out
}

// Doc fetches a document by table and ID. The owning shard isn't
// recorded in a result ref, so every shard is probed (IDs are globally
// unique per table).
func (c *Cluster) Doc(table string, id int64) (*xmltree.Document, bool) {
	for _, srv := range c.shards {
		if doc, ok := srv.Doc(table, id); ok {
			return doc, true
		}
	}
	return nil, false
}

// StatsLines renders the cluster's part of the human \stats view from
// one snapshot of the cluster registry: the \shards view, then the
// fan-out and tuner lines.
func (c *Cluster) StatsLines(v map[string]float64) []string {
	meanFan := 0.0
	if cnt := v["xixa_router_fanout_seconds_count"]; cnt > 0 {
		meanFan = v["xixa_router_fanout_seconds_sum"] / cnt
	}
	return append(c.shardLines(v),
		fmt.Sprintf("fan-out: %.0f rounds, mean latency %.3fms", v["xixa_router_fanout_seconds_count"], meanFan*1000),
		fmt.Sprintf("tuner: %.0f rounds, %.0f index builds, %.0f drops across shards",
			v["xixa_cluster_tune_rounds_total"], v["xixa_cluster_index_builds_total"], v["xixa_cluster_index_drops_total"]))
}

// ShardLines renders the \shards view: the router counters, then per
// shard its routed statements, admission rejects, document count and
// catalog size.
func (c *Cluster) ShardLines() []string { return c.shardLines(obs.Values(c.met.reg.Snapshot())) }

func (c *Cluster) shardLines(v map[string]float64) []string {
	lines := []string{fmt.Sprintf("%d shards; router: %.0f local, %.0f fanout, %.0f broadcast, %.0f overloaded",
		c.n, v["xixa_router_local_total"], v["xixa_router_fanout_total"],
		v["xixa_router_broadcast_total"], v["xixa_router_overloaded_total"])}
	for i, srv := range c.shards {
		docs := 0
		for _, name := range srv.DB().TableNames() {
			if tbl, err := srv.DB().Table(name); err == nil {
				docs += tbl.DocCount()
			}
		}
		lines = append(lines, fmt.Sprintf("shard %d: %.0f statements, %.0f rejects, %d documents, %d indexes (%d bytes)", i,
			v[fmt.Sprintf(`xixa_shard_statements_total{shard="%d"}`, i)],
			v[fmt.Sprintf(`xixa_shard_admission_rejects_total{shard="%d"}`, i)],
			docs, len(srv.Catalog().Definitions()), srv.Catalog().TotalSizeBytes()))
	}
	return lines
}

// Greeting is the line a connection is welcomed with.
func (s *Session) Greeting() string { return fmt.Sprintf("xixad cluster of %d shards", s.c.n) }

// ExplainLines renders the plan of a statement on each shard that
// would execute it: the owning shard's for a key-pinned statement,
// every shard's otherwise (inserts included — choosing an insert's
// shard can latch the table scatter-only, and explaining must not).
func (s *Session) ExplainLines(raw string) ([]string, error) {
	stmt, err := xquery.Parse(raw)
	if err != nil {
		return nil, err
	}
	lo, hi := 0, s.c.n
	if shard, ok := s.c.pinnedShard(stmt); ok {
		lo, hi = shard, shard+1
	}
	var lines []string
	for i := lo; i < hi; i++ {
		l, err := s.sess[i].ExplainLines(raw)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("shard %d: %s", i, l[0]))
	}
	return lines, nil
}

// Stats sums the per-shard sessions' execution statistics and their
// executed and failed statement counts.
func (s *Session) Stats() (st engine.Stats, executed, errors int64) {
	for _, sess := range s.sess {
		legSt, e, er := sess.Stats()
		st.Add(legSt)
		executed += e
		errors += er
	}
	return st, executed, errors
}

// RetryStats sums the per-shard sessions' conflict retries and backoff.
func (s *Session) RetryStats() (retries int64, backoff time.Duration) {
	for _, sess := range s.sess {
		r, b := sess.RetryStats()
		retries += r
		backoff += b
	}
	return retries, backoff
}

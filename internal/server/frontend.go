package server

// What a server supplies to the line-protocol front end
// (internal/frontend) beyond sessions, tuning and the registry: its
// index listing, a document for the result preview, and the lines of
// the human \stats view that only a server has.

import (
	"fmt"
	"time"

	"xixa/internal/xindex"
	"xixa/internal/xmltree"
)

// IndexInfo describes one materialized index for the \indexes listing.
type IndexInfo struct {
	// Label is printed ahead of the definition: empty on a server,
	// "shard 2: " on a cluster.
	Label   string
	Def     xindex.Definition
	Entries int
	Levels  int
	Bytes   int64
}

// Indexes lists the materialized catalog.
func (s *Server) Indexes() []IndexInfo {
	var out []IndexInfo
	for _, def := range s.cat.Definitions() {
		if idx, ok := s.cat.Get(def); ok {
			out = append(out, IndexInfo{Def: def, Entries: idx.Entries(), Levels: idx.Levels(), Bytes: idx.SizeBytes()})
		}
	}
	return out
}

// Doc fetches a document by table and ID.
func (s *Server) Doc(table string, id int64) (*xmltree.Document, bool) {
	tbl, err := s.db.Table(table)
	if err != nil {
		return nil, false
	}
	return tbl.Get(id)
}

// StatsLines renders the server's part of the human \stats view from
// one registry snapshot (obs.Values), so this view, the Prometheus
// endpoint, and TxnStats can never disagree.
func (s *Server) StatsLines(v map[string]float64) []string {
	secs := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
	}
	mean := func(name string) time.Duration {
		if c := v[name+"_count"]; c > 0 {
			return secs(v[name+"_sum"] / c)
		}
		return 0
	}
	lines := []string{
		fmt.Sprintf("server: %.0f sessions open (%.0f opened), %.0f indexes, %.0f captured statements",
			v["xixa_sessions_open"], v["xixa_sessions_opened_total"],
			v["xixa_index_definitions"], v["xixa_capture_statements"]),
		fmt.Sprintf("statements: %.0f served, %.0f failed, %.0f rejected overloaded, mean latency %s",
			v["xixa_statements_total"], v["xixa_statement_errors_total"],
			v["xixa_overloaded_total"], mean("xixa_statement_seconds")),
		fmt.Sprintf("txns: %.0f committed, %.0f aborted, %.0f write-write conflicts, %.0f retries, %s backoff",
			v["xixa_txn_commits_total"], v["xixa_txn_aborts_total"], v["xixa_txn_conflicts_total"],
			v["xixa_txn_retries_total"], time.Duration(v["xixa_txn_backoff_nanoseconds_total"]).Round(time.Microsecond)),
		fmt.Sprintf("commit pipeline: %.0f stamps allocated, watermark %.0f, publish lag %.0f (peak %.0f), publish wait %s",
			v["xixa_mvcc_stamps_allocated"], v["xixa_mvcc_watermark"],
			v["xixa_mvcc_publish_lag"], v["xixa_mvcc_publish_lag_peak"],
			secs(v["xixa_mvcc_publish_wait_seconds_total"])),
		fmt.Sprintf("replay reorder: %.0f frames buffered (peak %.0f)",
			v["xixa_replay_reorder_buffered"], v["xixa_replay_reorder_peak"]),
		fmt.Sprintf("statistics: %.0f folds, %.0f paths re-derived in full",
			v["xixa_stats_folds_total"], v["xixa_stats_path_rebuilds_total"]),
	}
	if s.wal != nil {
		lines = append(lines, fmt.Sprintf("wal: %.0f appends, %.0f fsyncs (mean %s), durable LSN %.0f, %.0f bytes",
			v["xixa_wal_appends_total"], v["xixa_wal_fsyncs_total"], mean("xixa_wal_fsync_seconds"),
			v["xixa_wal_durable_lsn"], v["xixa_wal_size_bytes"]))
	}
	return append(lines, fmt.Sprintf("tuner: %.0f rounds (%.0f skipped), %.0f indexes built, %.0f dropped, %.0f checkpoints",
		v["xixa_tuner_rounds_total"], v["xixa_tuner_rounds_skipped_total"],
		v["xixa_index_builds_total"], v["xixa_index_drops_total"], v["xixa_checkpoints_total"]))
}

// Greeting is the line a connection is welcomed with.
func (sess *Session) Greeting() string { return fmt.Sprintf("xixad session %d", sess.id) }

// ExplainLines renders Explain for the \explain command: one line, the
// plan and its base cost.
func (sess *Session) ExplainLines(raw string) ([]string, error) {
	plan, err := sess.Explain(raw)
	if err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("%s (base cost %.0f)", plan, plan.EstBaseCost)}, nil
}

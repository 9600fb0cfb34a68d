package server

// Server-side observability wiring: every server owns one obs.Registry
// (per-server, not global, so two servers in one process — a primary
// and a replica under test — never share counters) and one obs.Tracer.
// The serving layer's own counters live here as registry handles, and
// the layers below (storage, WAL, xindex manager) register theirs in
// New/Recover, so TxnStats, \stats, and /metrics all read the same
// numbers.

import (
	"xixa/internal/obs"
	"xixa/internal/workload"
)

// defaultTraceSampleEvery is the tracer's default sampling interval:
// one statement in 16 gets a full QueryTrace. Tracing a statement costs
// a few hundred nanoseconds (allocation plus several clock reads)
// against a ~5µs tuned serve, so tracing everything would be ~10%
// overhead; 1-in-16 keeps it under the 2% budget while still filling
// the ring within a second of normal traffic. The first statement is
// always traced (obs.Tracer.Sample), so /trace/last is never empty on
// a server that has served anything.
const defaultTraceSampleEvery = 16

// serverMetrics bundles the serving layer's registry handles. All
// fields are non-nil once newServerMetrics returns.
type serverMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	// Statement layer.
	statements  *obs.Counter   // executed successfully
	stmtErrors  *obs.Counter   // failed (parse errors excluded: no statement)
	overloaded  *obs.Counter   // rejected by admission control
	stmtSeconds *obs.Histogram // end-to-end latency of served statements
	sessions    *obs.Counter   // sessions ever opened

	// Transaction layer (the single source of truth: TxnStats reads
	// these, not shadow atomics).
	commits   *obs.Counter
	aborts    *obs.Counter
	conflicts *obs.Counter
	retries   *obs.Counter // auto-commit conflict retries
	backoffNs *obs.Counter // cumulative conflict backoff, integer ns

	// Tuner / durability.
	tunerRounds  *obs.Counter
	tunerSkipped *obs.Counter
	checkpoints  *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	tracer.SetSampleEvery(defaultTraceSampleEvery)
	return &serverMetrics{
		reg:    reg,
		tracer: tracer,

		statements: reg.Counter("xixa_statements_total"),
		stmtErrors: reg.Counter("xixa_statement_errors_total"),
		overloaded: reg.Counter("xixa_overloaded_total"),
		// 1µs .. ~8s in doubling buckets: spans an in-memory point query
		// and a conflict-retry storm waiting on fsyncs.
		stmtSeconds: reg.Histogram("xixa_statement_seconds", obs.ExpBuckets(1e-6, 2, 24)),
		sessions:    reg.Counter("xixa_sessions_opened_total"),

		commits:   reg.Counter("xixa_txn_commits_total"),
		aborts:    reg.Counter("xixa_txn_aborts_total"),
		conflicts: reg.Counter("xixa_txn_conflicts_total"),
		retries:   reg.Counter("xixa_txn_retries_total"),
		backoffNs: reg.Counter("xixa_txn_backoff_nanoseconds_total"),

		tunerRounds:  reg.Counter("xixa_tuner_rounds_total"),
		tunerSkipped: reg.Counter("xixa_tuner_rounds_skipped_total"),
		checkpoints:  reg.Counter("xixa_checkpoints_total"),
	}
}

// Metrics returns the server's metrics registry. Callers may register
// their own gauges on it (the replication layer does) and snapshot or
// render it at will.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Tracer returns the server's query-trace ring.
func (s *Server) Tracer() *obs.Tracer { return s.met.tracer }

// SetTraceSampleEvery adjusts trace sampling to one statement in n
// (n <= 1 traces every statement).
func (s *Server) SetTraceSampleEvery(n int) { s.met.tracer.SetSampleEvery(n) }

// cardObservations converts a trace's plan-node cardinality rows into
// the capture ring's feedback form.
func cardObservations(nodes []obs.NodeCard) []workload.CardObservation {
	out := make([]workload.CardObservation, len(nodes))
	for i, n := range nodes {
		out[i] = workload.CardObservation{Op: n.Op, Site: n.Site, Est: n.Est, Actual: n.Actual}
	}
	return out
}

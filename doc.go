// Package xixa is a from-scratch Go reproduction of "XML Index
// Recommendation with Tight Optimizer Coupling" (Elghandour et al.,
// ICDE 2008): an XML Index Advisor that recommends partial path-value
// indexes for an XML database and workload, using the query optimizer
// itself both to enumerate candidate index patterns (Enumerate Indexes
// mode, via a //* virtual universal index) and to estimate
// configuration benefits (Evaluate Indexes mode, via virtual indexes).
//
// The repository root holds only documentation and the benchmark
// harness (bench_test.go, one testing.B benchmark per paper table and
// figure). The implementation lives under internal/:
//
//   - internal/core — the advisor: candidate generalization
//     (Algorithm 1), the five configuration search algorithms, and the
//     efficient benefit evaluation of §VI-C.
//   - internal/optimizer — the cost-based optimizer with both EXPLAIN
//     modes, index matching, and index ANDing.
//   - internal/xpath, xquery — the linear-XPath and FLWOR/SQL-XML/DML
//     statement dialects, including pattern containment, the reference
//     evaluator (Eval) and the compiled scan predicates the executor
//     runs over a table's path dictionary (Program).
//   - internal/xmltree, storage, btree, xindex, xstats, engine,
//     persist, wal — the database substrate, including checkpoints
//     and the write-ahead log.
//   - internal/server — the concurrent serving layer: sessions,
//     admission control, live workload capture, and the autonomous
//     tuning loop behind cmd/xixad.
//   - internal/shard — horizontal sharding: the key-hash router,
//     scatter-gather execution, and the cluster-level advisor.
//   - internal/tpox, xmark — benchmark data and workload generators.
//   - internal/experiments — regenerates every table and figure of the
//     paper's evaluation.
//
// # Performance and concurrency
//
// The advisor pipeline is parallel end to end, controlled by
// core.Options.Parallelism: 0 (the default) fans independent optimizer
// calls — candidate enumeration, baseline costing, and benefit
// evaluation — out across runtime.GOMAXPROCS(0) workers, while 1 runs
// the paper's exact serial pipeline. Parallel loops reduce per-item
// results in ordinal order, so recommendations, benefits, and the
// OptimizerCalls count are bit-for-bit identical at every width. The
// benefit Evaluator is safe for concurrent searches sharing one
// advisor: its §VI-C sub-configuration cache is sharded behind
// RWMutexes and its counters are atomic.
//
// Independently, optimizer.EnablePlanCache (core.Options.PlanCacheSize)
// adds a bounded LRU memo of Evaluate Indexes results. Cache hits skip
// plan selection and are elided from the optimizer's EvaluateCalls
// counter, so the cache stays off by default and is forced off under
// the ablation options that audit optimizer-call counts.
//
// # Live statistics under updates
//
// optimizer.New freezes statistics at collection time; optimizer.NewLive
// instead maintains them incrementally from each table's change feed
// (storage.Table.Subscribe, xstats.Keeper): a K-document change batch
// folds into the synopsis in O(K) via exact value multisets
// (xstats.Delta, TableStats.ApplyDelta), compiled statements and
// plan-cache entries are keyed by statistics version and rebuilt on
// mismatch, and post-mutation plans and recommendations are
// bit-identical to a cold optimizer on freshly collected statistics.
// Engine-driven flows (cmd/xqshell, examples/autonomous, the
// update-stream experiment) run in this mode. internal/engine has one
// statement executor and one visibility rule: every statement is a
// transaction (Engine.Execute is Begin, Execute, Commit; a query is the
// read-only case), and one plan interpreter runs every match phase on
// the pinned snapshot, probing self-maintained indexes as of its stamp.
//
// # Serving and autonomous tuning
//
// internal/server closes the paper's loop: many concurrent sessions
// execute against one live engine (queries lock-free against mutators
// — copy-on-write documents and catalog snapshots — with bounded
// admission; mutations are snapshot-isolated MVCC transactions with
// first-writer-wins conflict detection and sharded stamp allocation —
// commits draw a stamp from an atomic counter and publish per table,
// a watermark gating visibility until all smaller stamps have
// published, so writers on disjoint tables commit in parallel with no
// database-wide critical section, snapshot transactions probe
// versioned indexes as of their stamp (xindex.ScanAsOf), and
// Session.Begin exposes explicit multi-
// statement transactions), executed statements land in a decaying
// workload capture
// ring keyed by normalized statement, and a tuning loop periodically
// runs the advisor on the capture, materializing recommendations with
// online index builds (xindex.BuildOnline: snapshot, build aside,
// catch up from the change feed, swap atomically — writers never
// block) and dropping abandoned indexes with hysteresis. The loop
// (server.Tuner) is written once; a server and a sharded cluster each
// hand it their workload, costing optimizer, hysteresis baseline and
// apply step. cmd/xixad is the daemon; snapshots persist the
// materialized catalog so restarts come up warm. internal/frontend is
// the daemon's front end, also written once: the line protocol, its
// command table and the accept loop over a Backend that server.Server
// and shard.Cluster both satisfy, which cmd/xixad (either mode) and
// cmd/xqshell (on stdin/stdout) serve.
//
// # Durability and crash recovery
//
// internal/wal layers a write-ahead log under the serving stack
// (server.Recover, xixad -wal-dir). A change reaches the log one way:
// a committing transaction encodes its write set — full-document
// inserts, replaces, removes — before its commit stamp exists, patches
// the stamp in, and appends the batch (wal.Log.AppendTxn) under its
// tables' commit locks, before the write set publishes; the tuning
// loop's index create/drop records take the same entry point. Records
// are CRC-checked and length-prefixed, and a multi-operation write set
// is framed by txn-begin/commit records so recovery applies committed
// transactions atomically and discards unterminated frames; every
// commit carries its stamp and replay (server.Applier) restores stamp
// order through a reorder buffer when disjoint-table commits
// interleaved in the log. A mutating statement returns only after
// wal.Log.Commit makes its LSN durable — a wait taken outside the
// commit gate, so concurrent writers batch into one fsync (SyncAlways),
// or flush to the OS with a background fsync bounding the power-loss
// window (SyncBatched), and commit throughput scales with batch size
// instead of disk latency. Checkpoints — LSN-
// stamped snapshots plus a workload-capture sidecar, written
// automatically once the log passes a size threshold — truncate the
// log and bound recovery, which replays the tail past the checkpoint,
// tolerates the torn final record a crash leaves, rebuilds indexes
// online, and restores a database bit-identical to the committed
// pre-crash state.
//
// # Replication and point-in-time restore
//
// internal/replica ships the WAL over the network (xixad
// -replication-addr / -replica-of): a primary streams CRC-framed
// records to any number of followers, each a live read-only server
// replaying the stream through the same applier that drives crash
// recovery, appending records verbatim so follower logs are
// byte-comparable to the primary's. A desynced stream — severed,
// corrupted — dies on the frame CRC and reconnects with jittered
// backoff from the follower's tip; LSN continuity makes redelivery
// idempotent, so no fault short of disk loss loses or duplicates a
// record. When the primary dies, promotion (\promote) truncates any
// transaction frame streamed without its commit record, mints a
// durable epoch that permanently fences the old primary if it
// returns, and opens the follower for writes. With an archive
// directory, checkpoints preserve WAL segments and LSN-stamped
// snapshots instead of deleting them, and server.RestoreToLSN
// rebuilds the exact committed image at any LSN in history.
//
// # Horizontal sharding
//
// internal/shard partitions every table by document-key hash across N
// in-process server instances behind one deterministic router (xixad
// -shards N). Inserts hash the table's declared key (an exact
// child-step path such as /Security/Symbol) to the owning shard, which
// allocates the document ID from a global per-table counter so IDs
// match an unsharded database exactly; a key-equality statement whose
// predicate the router can prove touches one key value pins to that
// shard alone; everything else scatter-gathers — per-shard goroutines
// bounded by a fan-out gate that fails fast with ErrOverloaded, then a
// document-ID-ordered merge. Pin detection is conservative: a missed
// pin costs a scatter, never a wrong answer, so cluster results — IDs
// and ordering included — are bit-identical to an unsharded server
// (enforced end to end by the sharded-serve experiment over the full
// TPoX+XMark corpus). The advisor tunes the cluster from a global
// plane: per-shard capture rings merge with decay-epoch alignment and
// per-shard synopses merge via xstats.TableStats.Merge, and the
// cluster tuner reconciles one target configuration — global
// (identical per shard, scatters stay fast everywhere) or per-shard
// (each shard tuned to the traffic its keys attract) — through the same
// tuning loop, and so the same build/drop hysteresis, as a single
// server.
//
// # Observability
//
// internal/obs is a dependency-free metrics and tracing layer. Every
// server owns a registry of named counters, gauges, and lock-striped
// histograms; the instrumented subsystems (sessions and admission,
// transactions, the commit pipeline, WAL and group commit, replication
// lag, the tuning loop, runtime gauges) register their handles there,
// and the registry handles ARE the server's counters — \stats,
// \stats json, \metrics, and the HTTP endpoint (xixad -http-addr:
// Prometheus-format /metrics, JSON /trace/last, /debug/pprof) are all
// views of the same atomics, so they can never disagree. A sampling
// tracer (1 in 16 by default) records per-statement spans — parse,
// optimize, index scan, xpath verify, commit — carrying wall time,
// row counts, and per costed plan node the optimizer's estimated
// cardinality beside the observed actual; those pairs feed back into
// the workload capture (workload.Capture.CardStats) as per-site
// q-error aggregates, measuring the estimator the paper couples the
// advisor to against live production traffic.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for regenerating the paper's evaluation.
package xixa

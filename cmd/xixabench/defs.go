package main

// metricDef names one reported number. BENCHMARK.json carries the same
// definitions (a test keeps the two in step); -compare reads them from
// here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end: the share by which it may worsen
	// Exact metrics are counts that repeat exactly on one commit;
	// -compare compares them for equality instead of against a bound.
	Exact bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one: for the wire workloads an operation is one
// statement over the socket, for advise it is one advisor round (so
// p50_us there is the advisor's run time, the paper's Fig. 3 x-axis).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers (layer = module name),
// taken from outside: the socket, \metrics deltas around an untraced
// wire run, and timed calls into public functions in the traced pass.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "client.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.p95_us", Unit: "us", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "xixad.wire_us", Unit: "us", Better: "lower"},
	{Name: "xquery.parse_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.plan_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.nodes_scanned_per_result", Unit: "count", Better: "lower"},
	{Name: "engine.docs_fetched_per_result", Unit: "count", Better: "lower"},
	{Name: "xpath.eval_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "xindex.probe_us", Unit: "us", Better: "lower"},
	{Name: "xindex.entries_per_probe", Unit: "count", Better: "lower"},
	{Name: "xindex.maintain_us", Unit: "us", Better: "lower"},
	{Name: "storage.commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "server.exec_us", Unit: "us", Better: "lower"},
	{Name: "server.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.txn_retries_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "server.admission_rejects", Unit: "count", Better: "lower"},
	{Name: "shard.router_us", Unit: "us", Better: "lower"},
	{Name: "shard.legs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "shard.pinned_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recommend_ms", Unit: "ms", Better: "lower"},
	{Name: "core.advise_ms", Unit: "ms", Better: "lower"},
	{Name: "core.optimizer_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.est_speedup", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "xstats.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name, Why string
}

const adviseName = "advise"

var workloadDefs = []workloadDef{
	{"point-tuned", "Zipf key lookups on advisor-built indexes: engine work is ~5us, so wire, parse, plan and reply do the work; a scan-path fix must show nothing here"},
	{"scan-untuned", "Q2-Q4/Q6 predicates with no index: every document goes through xpath.Eval, so engine/xpath do the work and the wire is a small share"},
	{"write-durable", "insert/update/delete cycles under -sync always: index maintenance, MVCC commit, WAL append and group-commit fsync show here and nowhere else"},
	{"scatter-4", "the scan-untuned stream through -shards 4: same scan work, so the difference in p50_us is the router's fan-out and merge"},
	{adviseName, "in-process advisor rounds over 215 statements, all five algorithms: core/optimizer/xstats do all the work and the serving stack none"},
}

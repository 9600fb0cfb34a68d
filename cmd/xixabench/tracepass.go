package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// The traced pass replays the first tracedStatements statements of a
// wire workload's stream (tracedRounds advisor rounds for advise).
const (
	tracedStatements = 2000
	tracedRounds     = 20
	echoRoundTrips   = 20000
)

// traceWire produces a wire workload's per-layer metrics. Counts and
// the wire's share come from an untraced run over the socket (\metrics
// deltas on the idle control connection); timings come from the traced
// pass in-process. The two are never mixed with the end-to-end runs.
func (c *config) traceWire(wl *wireWorkload, opt runOptions) (*result, error) {
	wopt := opt
	wopt.setups = 1
	wopt.warm, wopt.run = opt.warm/2, opt.run/2
	newStream, err := wl.streams(c.orc, c.seed)
	if err != nil {
		return nil, err
	}
	wr, err := runWire(wl, c.xixad, c.workDir, newStream, wopt)
	if err != nil {
		return nil, err
	}
	r := wireResult(wl, wr)
	layers := counterLayers(wl, wr)

	trips, n := echoRoundTrips, tracedStatements
	if c.smoke {
		trips, n = 500, 100
	}
	if layers["client.loopback_rtt_us"], err = echoRTT(newStream(0).next().stmt(), trips); err != nil {
		return nil, err
	}

	rec := newRecorder()
	timed, attempted, failed, err := tracedWire(wl, newStream(0), n, filepath.Join(c.workDir, wl.name+"-traced"), rec)
	if err != nil {
		return nil, err
	}
	for k, v := range timed {
		layers[k] = v
	}
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 && r.FirstFailure == "" {
		r.FirstFailure = "a statement of the traced pass returned an error or a wrong result count in-process"
	}
	return c.finishTrace(wl.name, r, layers, rec)
}

// traceAdvise produces the advise workload's per-layer metrics.
func (c *config) traceAdvise(runOptions) (*result, error) {
	rounds := tracedRounds
	if c.smoke {
		rounds = 1
	}
	rec := newRecorder()
	layers, attempted, failed, err := tracedAdvise(c.seed, rounds, rec)
	if err != nil {
		return nil, err
	}
	r := &result{Attempted: attempted, Failed: failed}
	if failed > 0 {
		r.FirstFailure = "an advisor round differs from the Parallelism-1 reference"
	}
	return c.finishTrace(adviseName, r, layers, rec)
}

// finishTrace files every per-layer metric (0 where the workload does
// not exercise the layer), the layer table, and writes the spans out.
func (c *config) finishTrace(name string, r *result, layers map[string]float64, rec *recorder) (*result, error) {
	r.Layers = make(map[string]measure, len(perLayer))
	for _, d := range perLayer {
		r.Layers[d.Name] = exact(layers[d.Name], d.Unit)
	}
	r.LayerTable = rec.table()
	path := filepath.Join(c.outDir, "trace-"+name+".json")
	if err := writeJSON(path, rec.spans); err != nil {
		return nil, err
	}
	if r.Notes == nil { // advise: wire results come with notes
		r.Notes = map[string]string{}
	}
	r.Notes["trace"] = fmt.Sprintf("%d spans in %s", len(rec.spans), path)
	return r, nil
}

// counterLayers derives the per-layer metrics that are counts or need
// the real socket, from the \metrics scrapes around an untraced run.
func counterLayers(wl *wireWorkload, wr *wireRun) map[string]float64 {
	delta := func(name string) float64 { return wr.after[name] - wr.before[name] }
	sumPrefix := func(prefix string) float64 {
		var s float64
		for k := range wr.after {
			if strings.HasPrefix(k, prefix) {
				s += delta(k)
			}
		}
		return s
	}
	out := map[string]float64{}

	for k, m := range tailLayers(wr.win) {
		out[k] = m.Value
	}

	// What the daemon timed inside Session.ExecuteStmt (the router's
	// scatter round for a cluster) against what the client saw: the
	// rest is socket read, line scan, parse, reply formatting, write —
	// and the generator's own floor, reported beside it.
	inside := "xixa_statement_seconds"
	if wl.shards > 1 {
		inside = "xixa_router_fanout_seconds"
	}
	if h := histogramDelta(wr.before, wr.after, inside); h.count > 0 {
		out["xixad.wire_us"] = wr.meanLatUs - h.mean()*float64(time.Second/time.Microsecond)
	}

	commits := delta("xixa_txn_commits_total")
	if commits > 0 {
		out["server.txn_retries_per_commit"] = delta("xixa_txn_retries_total") / commits
		out["wal.fsyncs_per_commit"] = delta("xixa_wal_fsyncs_total") / commits
	}
	out["server.admission_rejects"] = delta("xixa_overloaded_total") + delta("xixa_router_overloaded_total") +
		sumPrefix("xixa_shard_admission_rejects_total{")
	if h := histogramDelta(wr.before, wr.after, "xixa_wal_fsync_seconds"); h.count > 0 {
		out["wal.fsync_p50_us"] = h.quantile(0.5) * float64(time.Second/time.Microsecond)
	}
	if wr.xmlBytes > 0 {
		out["wal.bytes_per_user_byte"] = delta("xixa_wal_size_bytes") / float64(wr.xmlBytes)
	}
	if routed := delta("xixa_router_local_total") + delta("xixa_router_fanout_total") + delta("xixa_router_broadcast_total"); routed > 0 {
		out["shard.legs_per_stmt"] = sumPrefix("xixa_shard_statements_total{") / routed
		out["shard.pinned_frac"] = delta("xixa_router_local_total") / routed
	}
	return out
}

// tailLayers are the client's tail latencies: diagnostics, not gated.
// On a two-core box shared by generator and daemon, whose speed drifts
// by tens of percent over minutes, they do not repeat within any bound
// the contract allows. p95 is the median of the per-window p95s (each
// window has at least 50 samples beyond it); p99 and p99.9 are over the
// whole run, with the sample count beside them.
func tailLayers(w *windows) map[string]measure {
	total, _ := w.samples()
	_, pct := w.perWindow(95)
	all := w.all()
	p99, p999 := exact(percentile(all, 99), "us"), exact(percentile(all, 99.9), "us")
	p99.N, p999.N = total, total
	return map[string]measure{
		"client.p95_us":  summarize(pct[0], "us", total),
		"client.p99_us":  p99,
		"client.p999_us": p999,
	}
}

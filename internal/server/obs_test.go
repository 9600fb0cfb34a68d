package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xixa/internal/obs"
	"xixa/internal/storage"
)

// TestRegistryMatchesSessionTotals hammers one server from 8 sessions
// with a conflict-heavy mix (every writer updating the same hot
// document, plus inserts and point queries, then one BEGIN … COMMIT
// block holding a failing statement) and then requires the
// registry's counters to equal — exactly, not approximately — the sums
// of the per-session counters, the conflicts the clients saw, and the
// commit stamps the storage layer handed out. The registry handles ARE
// the server's counters, so any double-count or missed path shows up
// as an integer mismatch. Run under -race, this is also
// the concurrency soak for the lock-striped histograms and counters.
func TestRegistryMatchesSessionTotals(t *testing.T) {
	srv := New(fixtureDB(50), Config{MaxConcurrent: 8, QueueDepth: 64})
	defer srv.Close()
	srv.SetTraceSampleEvery(4)

	const nSess = 8
	const perSess = 40
	sessions := make([]*Session, nSess)
	for i := range sessions {
		sess, err := srv.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessions[i] = sess
	}
	base := readTxnSeries(srv)
	var surfaced atomic.Uint64 // conflicts returned to a client after the retries ran out
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			for j := 0; j < perSess; j++ {
				var stmt string
				switch j % 4 {
				case 0, 1:
					// Every session updates the same document: guaranteed
					// first-writer-wins contention, hence retries/backoff.
					stmt = fmt.Sprintf(`update SECURITY set Yield = %d.25 where /Security[Symbol="S00001"]`, j%9)
				case 2:
					stmt = pointQuery((i*7 + j) % 50)
				default:
					stmt = fmt.Sprintf(`insert into SECURITY value <Security><Symbol>OBS-%d-%d</Symbol><Yield>1.5</Yield></Security>`, i, j)
				}
				// Retry-exhaustion conflicts may surface; they are part of
				// what the counters must agree on.
				if _, err := sess.Execute(stmt); errors.Is(err, storage.ErrConflict) {
					surfaced.Add(1)
				}
			}
			// An explicit transaction's statements take the same
			// accounting path: two that succeed, one that fails.
			tx, err := sess.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			tx.Execute(fmt.Sprintf(`insert into SECURITY value <Security><Symbol>OBS-TX-%d</Symbol><Yield>2.5</Yield></Security>`, i))
			tx.Execute(pointQuery(i))
			if _, err := tx.Execute(`delete from NOSUCH where /Security[Symbol="S00001"]`); err == nil {
				t.Error("in-transaction statement on a missing table succeeded")
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("explicit transaction commit: %v", err)
			}
		}(i, sess)
	}
	wg.Wait()

	vals := obs.Values(srv.Metrics().Snapshot())
	v := func(name string) uint64 { return uint64(vals[name]) }

	var executed, errs, retries, backoffNs int64
	for _, sess := range sessions {
		_, e, f := sess.Stats()
		executed += e
		errs += f
		r, b := sess.RetryStats()
		retries += r
		backoffNs += b.Nanoseconds()
	}

	if got, want := v("xixa_statements_total"), uint64(executed); got != want {
		t.Errorf("statements counter %d, session sum %d", got, want)
	}
	if got, want := v("xixa_statement_errors_total"), uint64(errs); got != want {
		t.Errorf("statement errors counter %d, session sum %d", got, want)
	}
	if got, want := v("xixa_txn_retries_total"), uint64(retries); got != want {
		t.Errorf("retries counter %d, session sum %d", got, want)
	}
	if got, want := v("xixa_txn_backoff_nanoseconds_total"), uint64(backoffNs); got != want {
		t.Errorf("backoff counter %d ns, session sum %d ns", got, want)
	}

	// Without a log, a commit fails only on a first-writer-wins
	// conflict, and every statement of the mix executes: each abort is
	// a conflict, and each conflict was retried or surfaced.
	ts := readTxnSeries(srv)
	if ts.commits != ts.stamps-base.stamps {
		t.Errorf("commits counter %d, stamps allocated %d", ts.commits, ts.stamps-base.stamps)
	}
	if ts.watermark != ts.stamps || ts.lag != 0 {
		t.Errorf("watermark %d of %d stamps, publish lag %d after the hammer", ts.watermark, ts.stamps, ts.lag)
	}
	if ts.aborts != ts.conflicts {
		t.Errorf("aborts counter %d, conflicts counter %d", ts.aborts, ts.conflicts)
	}
	if got, want := ts.conflicts, uint64(retries)+surfaced.Load(); got != want {
		t.Errorf("conflicts counter %d, retries + surfaced conflicts %d", got, want)
	}
	if uint64(executed) < nSess*2 || uint64(errs) < nSess {
		t.Errorf("sessions counted %d executed, %d failed; the explicit transactions alone account for %d and %d",
			executed, errs, nSess*2, nSess)
	}
	if ts.commits == 0 {
		t.Error("no commits recorded; the hammer did nothing")
	}
	if got := v("xixa_sessions_opened_total"); got != nSess {
		t.Errorf("sessions opened %d, want %d", got, nSess)
	}
	if got := vals["xixa_statement_seconds_count"]; uint64(got) != uint64(executed+errs) {
		t.Errorf("latency histogram count %v, want %d (every admitted statement observes)", got, executed+errs)
	}
	// The updates planned against live statistics, so mutations were
	// folded in; the gauges and the \stats line read the same counters.
	folds, rebuilds := srv.opt.StatsFoldCounts()
	if folds == 0 || v("xixa_stats_folds_total") != uint64(folds) || v("xixa_stats_path_rebuilds_total") != uint64(rebuilds) {
		t.Errorf("statistics gauges (%d folds, %d rebuilds), keepers count (%d, %d), want equal and folds > 0",
			v("xixa_stats_folds_total"), v("xixa_stats_path_rebuilds_total"), folds, rebuilds)
	}
	if line := fmt.Sprintf("statistics: %d folds, %d paths re-derived in full", folds, rebuilds); !slices.Contains(srv.StatsLines(vals), line) {
		t.Errorf("\\stats lacks %q: %q", line, srv.StatsLines(vals))
	}
}

// TestServerObservabilityEndToEnd drives a server with sampling at 1
// (every statement traced) and checks the whole chain: the HTTP
// /metrics text carries the statement counters, and /trace/last
// returns a trace whose spans include the executed phases with
// plan-node cardinalities attached once an index exists.
func TestServerObservabilityEndToEnd(t *testing.T) {
	srv := New(fixtureDB(30), Config{})
	defer srv.Close()
	srv.SetTraceSampleEvery(1)
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for i := 0; i < 5; i++ {
		if _, err := sess.Execute(pointQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Execute(`insert into SECURITY value <Security><Symbol>E2E</Symbol><Yield>2.5</Yield></Security>`); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(obs.NewMux(srv.Metrics, srv.Tracer))
	defer hs.Close()

	get := func(path string) string {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"xixa_statements_total 6",
		"xixa_txn_commits_total 1",
		"xixa_statement_seconds_count 6",
		"go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	traces := get("/trace/last?n=10")
	for _, want := range []string{`"name": "optimize"`, `"name": "xpath verify"`, `"name": "commit"`, `"statement"`} {
		if !strings.Contains(traces, want) {
			t.Errorf("/trace/last missing %q in:\n%s", want, traces)
		}
	}

	// Traced executions feed the capture ring's cardinality aggregates.
	if stats := srv.Capture().CardStats(); len(stats) == 0 {
		t.Error("no cardinality observations reached the capture ring")
	}
}

package shard

import (
	"fmt"
	"sync"
	"testing"

	"xixa/internal/obs"
)

// loadAndQuery drives enough keyed traffic through the cluster for the
// advisor to want a symbol index: docs inserted, then repeated point
// queries.
func loadAndQuery(t *testing.T, c *Cluster, docs, queries int) *Session {
	t.Helper()
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		mustExec(t, sess, insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	for i := 0; i < queries; i++ {
		mustExec(t, sess, pointQuery(fmt.Sprintf("SYM%03d", i%docs)))
	}
	return sess
}

// TestClusterTuneBuildsEverywhere: a tuning round advised from the
// merged stats materializes the recommended indexes on every shard,
// and post-tune pinned queries probe them.
func TestClusterTuneBuildsEverywhere(t *testing.T) {
	c := newTestCluster(t, 3)
	sess := loadAndQuery(t, c, 60, 40)
	defer sess.Close()

	rep, err := c.TuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || len(rep.Recommended) == 0 {
		t.Fatalf("round did not recommend: %+v", rep)
	}
	if len(rep.Target) == 0 {
		t.Fatal("hysteresis (BuildAfter=1) admitted nothing into the target")
	}
	if len(rep.PerShard) != 3 {
		t.Fatalf("PerShard entries = %d, want 3", len(rep.PerShard))
	}
	for _, st := range rep.PerShard {
		if len(st.Built) == 0 {
			t.Fatalf("shard %d built nothing", st.Shard)
		}
	}
	for i := 0; i < c.Shards(); i++ {
		if len(c.Shard(i).Catalog().Definitions()) == 0 {
			t.Fatalf("shard %d catalog empty after global tune", i)
		}
	}

	// A pinned point query now runs an index probe on its shard.
	res := mustExec(t, sess, pointQuery("SYM007"))
	if res.Stats.IndexProbes == 0 {
		t.Fatalf("post-tune pinned query did not probe an index: %+v", res.Stats)
	}
	if len(res.Refs) != 1 {
		t.Fatalf("post-tune refs = %d, want 1", len(res.Refs))
	}
}

// TestClusterMetrics: routing decisions, per-shard dispatch, and
// fan-out latency all land in the cluster registry.
func TestClusterMetrics(t *testing.T) {
	c := newTestCluster(t, 2)
	sess := loadAndQuery(t, c, 20, 10)
	defer sess.Close()
	mustExec(t, sess, sectorQuery("Tech"))
	mustExec(t, sess, sectorQuery("Energy"))
	mustExec(t, sess, `update SECURITY set Yield = 1 where /Security[Yield="2"]`)

	vals := obs.Values(c.Metrics().Snapshot())
	if vals["xixa_router_local_total"] != 30 { // 20 inserts + 10 pinned queries
		t.Errorf("local = %v, want 30", vals["xixa_router_local_total"])
	}
	if vals["xixa_router_fanout_total"] != 2 {
		t.Errorf("fanout = %v, want 2", vals["xixa_router_fanout_total"])
	}
	if vals["xixa_router_broadcast_total"] != 1 {
		t.Errorf("broadcast = %v, want 1", vals["xixa_router_broadcast_total"])
	}
	if vals["xixa_cluster_shards"] != 2 {
		t.Errorf("shards gauge = %v, want 2", vals["xixa_cluster_shards"])
	}
	perShard := vals[`xixa_shard_statements_total{shard="0"}`] + vals[`xixa_shard_statements_total{shard="1"}`]
	// 30 single-shard statements + 3 fan-outs × 2 shards.
	if perShard != 36 {
		t.Errorf("per-shard statements sum = %v, want 36", perShard)
	}
	if vals["xixa_router_fanout_seconds_count"] != 3 {
		t.Errorf("fanout latency observations = %v, want 3", vals["xixa_router_fanout_seconds_count"])
	}
}

// TestMergedWorkloadNormalizesScatterFrequency: a scattered statement
// observed once per shard per execution merges back to its client
// frequency, while pinned statements keep theirs.
func TestMergedWorkloadNormalizesScatterFrequency(t *testing.T) {
	c := newTestCluster(t, 3)
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 9; i++ {
		mustExec(t, sess, insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	const execs = 12
	for i := 0; i < execs; i++ {
		mustExec(t, sess, pointQuery("SYM001")) // pinned: observed once
		mustExec(t, sess, sectorQuery("Tech"))  // scattered: observed 3x
	}

	w := c.MergedWorkload()
	freq := make(map[string]int)
	for _, it := range w.Items {
		freq[it.Stmt.Raw] = it.Freq
	}
	if got := freq[pointQuery("SYM001")]; got != execs {
		t.Errorf("pinned query freq = %d, want %d", got, execs)
	}
	if got := freq[sectorQuery("Tech")]; got != execs {
		t.Errorf("scattered query freq = %d, want %d (normalized from %d observations)",
			got, execs, execs*3)
	}
}

// TestConcurrentClusterSessions drives parallel sessions through
// routed and scattered paths while a tuning round runs — the -race
// suite's coverage of the router's shared state.
func TestConcurrentClusterSessions(t *testing.T) {
	// Deep per-shard queues: the point here is racing the router's
	// shared state, not exercising admission fail-fast (which would
	// legitimately reject under a 1-CPU default queue).
	cfg := testConfig(3)
	cfg.Server.MaxConcurrent = 8
	cfg.Server.QueueDepth = 256
	cfg.MaxFanout = 32
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("SECURITY"); err != nil {
		t.Fatal(err)
	}
	boot, berr := c.NewSession()
	if berr != nil {
		t.Fatal(berr)
	}
	for i := 0; i < 30; i++ {
		mustExec(t, boot, insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	boot.Close()

	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			sess, err := c.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			for i := 0; i < 40; i++ {
				var raw string
				switch i % 4 {
				case 0:
					raw = pointQuery(fmt.Sprintf("SYM%03d", (wkr*7+i)%30))
				case 1:
					raw = sectorQuery(sectors[i%4])
				case 2:
					raw = insertSec(fmt.Sprintf("W%dI%03d", wkr, i), sectors[i%4], i%9)
				default:
					raw = fmt.Sprintf(`update SECURITY set Yield = %d where /Security[Symbol="SYM%03d"]`, i%5, (wkr+i)%30)
				}
				if _, err := sess.Execute(raw); err != nil {
					errCh <- fmt.Errorf("worker %d: %s: %w", wkr, raw, err)
					return
				}
			}
		}(wkr)
	}
	if _, err := c.TuneOnce(); err != nil {
		t.Errorf("tune during traffic: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every inserted document is findable afterwards.
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res := mustExec(t, sess, `for $s in SECURITY('SDOC')/Security return $s`)
	if len(res.Refs) != 30+workers*10 {
		t.Fatalf("total docs = %d, want %d", len(res.Refs), 30+workers*10)
	}
}

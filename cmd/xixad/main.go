// Command xixad is the xixa serving daemon: a concurrent server over a
// TPoX (or snapshot-restored) database that executes statements from
// many clients, captures the live workload, and runs the paper's index
// advisor autonomously — recommendations are materialized online, with
// writers never blocked, and dropped again when the workload moves on.
//
// Usage:
//
//	xixad [-addr :4095] [-scale N] [-snapshot file] [-wal-dir dir]
//	      [-sync always|batched|off] [-checkpoint-mb N] [-archive-dir dir]
//	      [-replication-addr :4096] [-replica-of host:4096]
//	      [-tune-interval 30s] [-budget-mb N] [-algorithm topdown-full]
//	      [-http-addr :4097] [-shards N] [-demo N]
//
// With -http-addr, the daemon serves its observability surface over
// HTTP: Prometheus-format metrics at /metrics, the most recent query
// traces (per-phase spans with estimated-vs-actual plan-node
// cardinalities) as JSON at /trace/last?n=K, and the standard Go
// profiles under /debug/pprof/.
//
// With -wal-dir, the daemon is durable: every committed mutation is in
// the write-ahead log before the client sees OK (group commit batches
// concurrent writers into one fsync under -sync always), checkpoints
// bound replay time (automatic past -checkpoint-mb, plus one on
// graceful shutdown), and startup recovers the database, index
// catalog, and captured workload from checkpoint + WAL tail — a crash
// (kill -9 mid-burst) loses nothing that was committed.
//
// With -replication-addr (durable mode only), the daemon streams its
// WAL to followers: each follower runs xixad with -replica-of pointing
// here and its own -wal-dir, replays the stream continuously, and
// serves read-only sessions. When the primary dies, \promote on a
// follower truncates any half-streamed transaction frame, mints a new
// epoch that fences the old primary if it comes back, and opens the
// follower for writes (binding its own -replication-addr, if set, so
// the remaining followers can re-point to it). -archive-dir preserves
// checkpointed-away WAL segments and LSN-stamped checkpoints — the
// retention that lets any follower catch up from any age and
// server.RestoreToLSN rebuild the exact image at any committed LSN.
//
// With -shards N (N>1), the daemon partitions every table by
// document-key hash across N in-process shards behind a deterministic
// router (internal/shard): inserts and key-equality statements go to
// the owning shard alone, everything else scatter-gathers with a
// document-ID-ordered merge, so results — IDs and ordering included —
// are bit-identical to an unsharded daemon. Capture and statistics
// merge into one global plane the advisor tunes from, and \shards
// shows the router counters and per-shard placement. Sharded mode is
// in-memory: incompatible with -wal-dir, -snapshot, -archive-dir,
// -replica-of, -replication-addr, and -demo.
//
// With -snapshot (and no -wal-dir), the daemon restores the database
// AND the materialized index catalog from the file at startup (warm
// start: index plans serve immediately), and persists both on graceful
// shutdown (SIGINT/SIGTERM) — but mutations since the last save die
// with the process.
//
// The wire protocol is line-oriented: one statement per line, responses
// are "| ..." result lines followed by an "OK ..." summary, or an
// "ERR ..." line. The protocol, its commands (\indexes, \tune,
// \explain, \stats [json], \metrics, \shards, \promote, \quit) and the
// accept loop live in internal/frontend, written once over a Backend
// that a server and a cluster both satisfy; this command builds one of
// the two from its flags and owns the process: flags, logging, the
// HTTP listener, signals, and what a graceful shutdown persists.
//
// With -demo N, the daemon instead drives N synthetic client goroutines
// against itself for a few seconds and prints what the tuning loop did
// — a no-network quickstart.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"xixa/internal/core"
	"xixa/internal/frontend"
	"xixa/internal/replica"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
)

func main() {
	addr := flag.String("addr", ":4095", "listen address (empty disables the listener)")
	scale := flag.Int("scale", 1, "TPoX scale factor when no snapshot exists")
	snapshot := flag.String("snapshot", "", "snapshot file: restored on start (if present), saved on shutdown (ignored with -wal-dir)")
	walDir := flag.String("wal-dir", "", "durability directory (WAL + checkpoints): recover on start, log every commit")
	syncMode := flag.String("sync", "batched", "WAL sync policy: always (group commit per statement), batched (background fsync), off")
	checkpointMB := flag.Int64("checkpoint-mb", 0, "auto-checkpoint once the WAL exceeds this size in MB (0 = 64)")
	archiveDir := flag.String("archive-dir", "", "preserve checkpointed-away WAL segments and checkpoints here (enables deep follower catch-up and point-in-time restore)")
	replAddr := flag.String("replication-addr", "", "stream the WAL to followers on this address (requires -wal-dir; on a follower, bound after \\promote)")
	replicaOf := flag.String("replica-of", "", "start as a read-only follower of the primary at this address (requires -wal-dir)")
	tuneEvery := flag.Duration("tune-interval", 30*time.Second, "autonomous tuning period (0 disables)")
	budgetMB := flag.Int64("budget-mb", 0, "disk budget for materialized indexes in MB (0 = All-Index size)")
	algorithm := flag.String("algorithm", core.AlgoTopDownFull, "advisor search algorithm")
	demo := flag.Int("demo", 0, "drive N synthetic clients against the daemon and exit")
	parallelism := flag.Int("parallelism", 0, "advisor fan-out width (0 = GOMAXPROCS)")
	httpAddr := flag.String("http-addr", "", "serve /metrics, /trace/last, and /debug/pprof on this address (empty disables)")
	shards := flag.Int("shards", 1, "partition the database across N in-process shards (N>1; incompatible with -wal-dir, -snapshot, -archive-dir, -replica-of, -replication-addr, -demo)")
	flag.Parse()

	cfg := server.Config{
		Budget:      *budgetMB << 20,
		Algorithm:   *algorithm,
		Parallelism: *parallelism,
	}

	// Build the backend the flags describe. From here on both modes
	// are one path: what names the backend in the log lines, shutdown
	// is what a graceful stop persists and closes.
	var (
		sh       *frontend.Shell
		what     string
		shutdown func()
		srv      *server.Server // nil when sharded
	)
	if *shards > 1 {
		if *walDir != "" || *snapshot != "" || *archiveDir != "" || *replicaOf != "" || *replAddr != "" {
			log.Fatalf("xixad: -shards does not compose with durability or replication flags yet")
		}
		if *demo > 0 {
			log.Fatalf("xixad: -demo is unsharded only")
		}
		c := startCluster(*scale, shard.Config{
			Shards:       *shards,
			Keys:         tpox.PartitionKeys(),
			Server:       cfg,
			TuneInterval: *tuneEvery,
		})
		sh, what, shutdown = frontend.New(c), fmt.Sprintf("%d shards ", *shards), c.Close
	} else {
		cfg.TuneInterval = *tuneEvery
		cfg.CheckpointBytes = *checkpointMB << 20
		cfg.ArchiveDir = *archiveDir
		if *archiveDir != "" {
			// Archiving preserves sealed segments; without rolling there is
			// nothing to seal, so give the log a segment size.
			cfg.SegmentBytes = 16 << 20
		}
		n := startServer(cfg, *scale, *snapshot, *walDir, *syncMode, *replAddr, *replicaOf)
		srv = n.Server
		sh, shutdown = frontend.New(n), func() { n.shutdown(*snapshot) }
	}

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("xixad: http listen: %v", err)
		}
		hsrv := &http.Server{Handler: sh.HTTPHandler()}
		go hsrv.Serve(hln)
		defer hsrv.Close()
		log.Printf("%sobservability on http://%s/ (metrics, trace/last, debug/pprof)", what, hln.Addr())
	}

	if *demo > 0 {
		runDemo(srv, *demo)
		shutdown()
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigc
		log.Print("shutting down")
		close(stop)
	}()

	if *addr == "" {
		// Headless: no listener — the daemon just keeps its database,
		// capture, and tuning loop alive until a signal arrives.
		// (net.Listen("tcp", "") would NOT mean "off": it binds a
		// random port on all interfaces.)
		log.Printf("no listen address; running %sheadless (tune every %v)", what, *tuneEvery)
		<-stop
	} else {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatalf("xixad: listen: %v", err)
		}
		log.Printf("serving %son %s (tune every %v)", what, ln.Addr(), *tuneEvery)
		sh.Serve(ln, stop)
	}
	shutdown()
}

// logTune is the autonomous loop's observer: rounds that did something
// are logged.
func logTune[R fmt.Stringer](skipped func(R) bool) func(R, error) {
	return func(rep R, err error) {
		if err != nil {
			log.Printf("tune: %v", err)
		} else if !skipped(rep) {
			log.Print(rep)
		}
	}
}

// node is the unsharded backend: a server plus the daemon's replication
// role — primary (streaming the WAL to followers), follower (promotable
// via \promote), or neither. A follower that promotes becomes a primary
// in place.
type node struct {
	*server.Server
	replAddr string // -replication-addr; a follower binds it at promotion

	mu   sync.Mutex
	prim *replica.Primary
	fol  *replica.Follower // nil once promoted
}

// startServer brings up the server the flags describe — following a
// primary, recovered from a WAL directory, restored from a snapshot, or
// fresh over generated TPoX data — with its tuning loop and, on a
// durable primary, its replication listener.
func startServer(cfg server.Config, scale int, snapshot, walDir, syncMode, replAddr, replicaOf string) *node {
	n := &node{replAddr: replAddr}
	generate := func() (*storage.Database, error) {
		log.Printf("generating TPoX data (scale %d)", scale)
		return tpox.NewDatabase(scale)
	}
	if walDir != "" {
		policy, err := wal.ParseSyncPolicy(syncMode)
		if err != nil {
			log.Fatalf("xixad: %v", err)
		}
		cfg.SyncPolicy = policy
	}
	switch {
	case replicaOf != "":
		if walDir == "" {
			log.Fatalf("xixad: -replica-of requires -wal-dir (the follower's own durability directory)")
		}
		f, err := replica.StartFollower(replica.FollowerConfig{PrimaryAddr: replicaOf, Dir: walDir, Server: cfg})
		if err != nil {
			log.Fatalf("xixad: follow %s: %v", replicaOf, err)
		}
		n.fol, n.Server = f, f.Server()
		info := f.Info()
		log.Printf("following %s from LSN %d (epoch %d); read-only until \\promote",
			replicaOf, info.AppliedLSN, info.Epoch)
	case walDir != "":
		cfg.WALDir = walDir
		recovered, info, err := server.Recover(cfg, generate)
		if err != nil {
			log.Fatalf("xixad: recover: %v", err)
		}
		n.Server = recovered
		log.Printf("%s (sync=%s)", info, cfg.SyncPolicy)
	case snapshot != "":
		if _, err := os.Stat(snapshot); err == nil {
			log.Printf("restoring snapshot %s", snapshot)
			restored, err := server.OpenSnapshot(snapshot, cfg)
			if err != nil {
				log.Fatalf("xixad: restore: %v", err)
			}
			n.Server = restored
			log.Printf("warm start: %d indexes materialized", len(restored.Catalog().Definitions()))
		}
	}
	if n.Server == nil {
		db, err := generate()
		if err != nil {
			log.Fatalf("xixad: %v", err)
		}
		n.Server = server.New(db, cfg)
	}

	if n.fol == nil {
		// Followers don't tune: their catalog converges by replaying the
		// primary's index records. \promote starts the tuner.
		n.startAutoTune()
		if replAddr != "" {
			if n.WAL() == nil {
				log.Fatalf("xixad: -replication-addr requires -wal-dir (streaming replicates the WAL)")
			}
			bound, err := n.streamWAL()
			if err != nil {
				log.Fatalf("xixad: %v", err)
			}
			log.Printf("streaming WAL to followers on %s (epoch %d)", bound, n.prim.Epoch())
		}
	}
	return n
}

func (n *node) startAutoTune() {
	n.StartAutoTune(logTune(func(rep *server.TuneReport) bool { return rep.Skipped }))
}

// streamWAL makes the node a replication primary on replAddr.
func (n *node) streamWAL() (bound string, err error) {
	p, err := replica.NewPrimary(n.Server, replica.PrimaryConfig{})
	if err != nil {
		return "", err
	}
	if bound, err = p.ListenAndServe(n.replAddr); err != nil {
		return "", fmt.Errorf("replication listen: %w", err)
	}
	n.mu.Lock()
	n.prim = p
	n.mu.Unlock()
	return bound, nil
}

// role returns the node's current replication role: at most one of the
// two is non-nil.
func (n *node) role() (*replica.Primary, *replica.Follower) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.prim, n.fol
}

// PromoteToPrimary is the \promote role (frontend.Promoter): a follower
// truncates any half-streamed frame, mints the next epoch, opens for
// writes, starts tuning, and — with -replication-addr — starts
// streaming to the remaining followers.
func (n *node) PromoteToPrimary() (string, error) {
	_, f := n.role()
	if f == nil {
		return "", errors.New("not a follower")
	}
	epoch, err := f.Promote()
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.fol = nil
	n.mu.Unlock()
	n.startAutoTune()
	summary := fmt.Sprintf("promoted at epoch %d", epoch)
	if n.replAddr != "" {
		bound, err := n.streamWAL()
		if err != nil {
			return "", fmt.Errorf("%s but %v", summary, err)
		}
		summary += ", streaming to followers on " + bound
	}
	log.Printf("promoted to primary at epoch %d (log at LSN %d)", epoch, n.WAL().LastLSN())
	return summary, nil
}

// StatsLines adds the replication role's lines to the server's.
func (n *node) StatsLines(vals map[string]float64) []string {
	lines := n.Server.StatsLines(vals)
	p, f := n.role()
	if p != nil {
		followers := p.Status()
		lines = append(lines, fmt.Sprintf("replication: primary at epoch %d, %d followers", p.Epoch(), len(followers)))
		for _, fs := range followers {
			lines = append(lines, fmt.Sprintf("replication follower %s: streamed LSN %d, acked %d, lag %d records",
				fs.Addr, fs.StreamedLSN, fs.AckedLSN, fs.LagRecords))
		}
	}
	if f != nil {
		info := f.Info()
		state := "disconnected"
		if info.Connected {
			state = "connected"
		}
		lines = append(lines, fmt.Sprintf("replication: following at epoch %d, applied LSN %d, primary tip %d, lag %d records (LSN delta %d), %s (%d reconnects)",
			info.Epoch, info.AppliedLSN, info.PrimaryFlushedLSN, info.LagRecords, info.LagLSN, state, info.Reconnects))
	}
	return lines
}

// shutdown persists what the node's mode promises and closes it.
func (n *node) shutdown(snapshot string) {
	p, f := n.role()
	if p != nil {
		p.Close()
	}
	if f != nil {
		// A live follower's applier owns the database; stop the stream
		// and the server together, no shutdown checkpoint (the next
		// start replays or re-streams the tail).
		f.Close()
		return
	}
	if n.WAL() != nil {
		// Durable mode: a shutdown checkpoint empties the WAL so the
		// next start replays nothing. (Skipping it would be correct
		// too — recovery would just replay the tail.)
		if err := n.Checkpoint(); err != nil {
			log.Printf("xixad: checkpoint: %v", err)
		} else {
			log.Printf("checkpoint written (%d indexes)", len(n.Catalog().Definitions()))
		}
	} else if snapshot != "" {
		if err := n.SaveSnapshot(snapshot); err != nil {
			log.Printf("xixad: snapshot: %v", err)
		} else {
			log.Printf("snapshot saved to %s (%d indexes)", snapshot, len(n.Catalog().Definitions()))
		}
	}
	n.Close()
}

// runDemo drives n synthetic clients against the server for a few
// rounds, tuning between them, and prints the progression from table
// scans to index plans — the zero-to-aha path without a client.
func runDemo(srv *server.Server, n int) {
	queries := tpox.Queries()
	var wg sync.WaitGroup
	round := func(r int) {
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sess, err := srv.NewSession()
				if err != nil {
					log.Printf("demo client %d: %v", c, err)
					return
				}
				defer sess.Close()
				for i := 0; i < 20; i++ {
					q := queries[(c*7+i)%len(queries)]
					if _, err := sess.Execute(q); err != nil && err != server.ErrOverloaded {
						log.Printf("demo client %d: %v", c, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	for r := 1; r <= 3; r++ {
		start := time.Now()
		round(r)
		rep, err := srv.TuneOnce()
		if err != nil {
			log.Printf("demo tune: %v", err)
			return
		}
		log.Printf("demo round %d: %d clients x 20 stmts in %v; %s",
			r, n, time.Since(start).Round(time.Millisecond), rep)
	}
	sess, err := srv.NewSession()
	if err != nil {
		return
	}
	defer sess.Close()
	plan, err := sess.Explain(queries[tpox.PaperQ1])
	if err == nil {
		log.Printf("demo: Q1 now plans as %s", plan)
	}
}

// Command xixad is the xixa serving daemon: a concurrent server over a
// TPoX (or recovered) database that executes statements from many
// clients, captures the live workload, and runs the paper's index
// advisor autonomously — recommendations are materialized online, with
// writers never blocked, and dropped again when the workload moves on.
//
// Usage:
//
//	xixad [-addr :4095] [-scale N] [-wal-dir dir]
//	      [-sync always|batched|off] [-checkpoint-mb N]
//	      [-replication-addr :4096] [-replica-of host:4096]
//	      [-tune-interval 30s] [-budget-mb N] [-algorithm topdown-full]
//	      [-http-addr :4097] [-shards N]
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
// bound replay time (automatic once a commit takes the WAL past
// -checkpoint-mb, whether or not the tuner runs, plus one on graceful
// shutdown), and startup recovers the database, index
// catalog, and captured workload from checkpoint + WAL tail — a
// restart comes up warm, serving index plans at once, and a crash
// (kill -9 mid-burst) loses nothing that was committed.
//
// With -replication-addr (durable mode only), the daemon streams its
// WAL to followers: each follower runs xixad with -replica-of pointing
// here and its own -wal-dir, replays the stream continuously, and
// serves read-only sessions. A follower whose -wal-dir holds no state
// yet must start from the primary's image, so it waits at start,
// redialing with backoff, until the primary answers; a follower with
// local state recovers it, then connects the same way, and if the
// primary is unreachable it serves that state and reconnects in the
// background. A primary that answers and refuses (fenced, diverged, or
// an epoch older than the follower has seen) stops the start with that
// error. Followers do not checkpoint: the stream's applier owns
// their database, and their WAL grows until \promote. When the
// primary dies, \promote on a follower mints a new epoch that fences
// the old primary if it comes back, and opens the follower for writes
// (binding its own -replication-addr, if set, so the remaining
// followers can re-point to it). A follower that falls behind a
// primary checkpoint (it was disconnected or stopped while the primary
// checkpointed past its position) re-bootstraps in place from the
// primary's snapshot on its next connection, at start or live; its
// sessions opened before that answer ERR … closed, and their clients
// reconnect.
//
// With -shards N (N>1), the daemon partitions every table by
// document-key hash across N in-process shards behind a deterministic
// router (internal/shard): inserts and key-equality statements go to
// the owning shard alone, everything else scatter-gathers with a
// document-ID-ordered merge, so results — IDs and ordering included —
// are bit-identical to an unsharded daemon. Capture and statistics
// merge into one global plane the advisor tunes from, and \shards
// shows the router counters and per-shard placement. Sharded mode is
// in-memory: incompatible with -wal-dir, -replica-of and
// -replication-addr.
//
// The wire protocol is line-oriented: one statement per line, responses
// are "| ..." result lines followed by an "OK ..." summary, or an
// "ERR ..." line. The protocol, its commands (\indexes, \tune,
// \explain, \stats [json], \metrics, \shards, \promote, \quit) and the
// accept loop live in internal/frontend. This command parses its flags
// into a daemon.Config (internal/daemon builds the backend and its
// listeners, and refuses flag settings it cannot serve) and stops the
// daemon gracefully on SIGINT or SIGTERM.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xixa/internal/core"
	"xixa/internal/daemon"
)

func main() {
	var cfg daemon.Config
	flag.StringVar(&cfg.Addr, "addr", ":4095", "listen address (empty disables the listener)")
	flag.IntVar(&cfg.Scale, "scale", 1, "TPoX scale factor when no durable state exists")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "durability directory (WAL + checkpoints): recover on start, log every commit")
	flag.StringVar(&cfg.Sync, "sync", "batched", "WAL sync policy: always (group commit per statement), batched (background fsync), off")
	flag.Int64Var(&cfg.CheckpointMB, "checkpoint-mb", 0, "auto-checkpoint once the WAL exceeds this size in MB (0 = 64)")
	flag.StringVar(&cfg.ReplicationAddr, "replication-addr", "", "stream the WAL to followers on this address (requires -wal-dir; on a follower, bound after \\promote)")
	flag.StringVar(&cfg.ReplicaOf, "replica-of", "", "start as a read-only follower of the primary at this address (requires -wal-dir)")
	flag.DurationVar(&cfg.TuneInterval, "tune-interval", 30*time.Second, "autonomous tuning period (0 disables)")
	flag.Int64Var(&cfg.BudgetMB, "budget-mb", 0, "disk budget for materialized indexes in MB (0 = All-Index size)")
	flag.StringVar(&cfg.Algorithm, "algorithm", core.AlgoTopDownFull, "advisor search algorithm")
	flag.StringVar(&cfg.HTTPAddr, "http-addr", "", "serve /metrics, /trace/last, and /debug/pprof on this address (empty disables)")
	flag.IntVar(&cfg.Shards, "shards", 1, "partition the database across N in-process shards (N>1; incompatible with -wal-dir, -replica-of, -replication-addr)")
	flag.Parse()

	d, err := daemon.Start(cfg)
	if err != nil {
		log.Fatalf("xixad: %v", err)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigc
		log.Print("shutting down")
		close(stop)
	}()
	d.Serve(stop)
	d.Close()
}

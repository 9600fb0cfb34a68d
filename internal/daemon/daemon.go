// Package daemon assembles xixad from its flags: the backend the flags
// describe (a fresh, recovered or following server with its replication
// role, or a sharded cluster), the line-protocol and HTTP listeners, the
// tuning loop's logging, \promote, and what a graceful shutdown
// persists. cmd/xixad only parses flags into a Config and handles
// signals; every refusal of a flag setting is an error from Start.
package daemon

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"xixa/internal/core"
	"xixa/internal/frontend"
	"xixa/internal/obs"
	"xixa/internal/replica"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/xmltree"
)

// Config holds xixad's flags, one field per flag; cmd/xixad documents
// each flag and its default.
type Config struct {
	Addr            string        // -addr: line-protocol listener ("" = headless)
	HTTPAddr        string        // -http-addr: /metrics, /trace/last, /debug/pprof ("" = off)
	Scale           int           // -scale: TPoX scale factor of a fresh database
	WALDir          string        // -wal-dir: durability directory ("" = in-memory)
	Sync            string        // -sync: always, batched or off (with WALDir)
	CheckpointMB    int64         // -checkpoint-mb: auto-checkpoint threshold (0 = 64)
	ReplicationAddr string        // -replication-addr: WAL stream listener (with WALDir)
	ReplicaOf       string        // -replica-of: follow this primary (with WALDir)
	TuneInterval    time.Duration // -tune-interval: autonomous tuning period (0 = off)
	BudgetMB        int64         // -budget-mb: index disk budget (0 = All-Index size)
	Algorithm       string        // -algorithm: advisor search algorithm
	Shards          int           // -shards: in-process shards (1 = unsharded)
}

// check refuses the flag settings that cannot be served as asked.
// An unknown -algorithm or -sync is refused in every mode, before any
// data is generated or any tuning round pays for candidate enumeration.
func (c Config) check() error {
	if !slices.Contains(core.Algorithms(), c.Algorithm) {
		return fmt.Errorf("-algorithm %q: want one of %s", c.Algorithm, strings.Join(core.Algorithms(), ", "))
	}
	if _, err := wal.ParseSyncPolicy(c.Sync); err != nil {
		return fmt.Errorf("-sync: %w", err)
	}
	switch {
	case c.Shards < 1:
		return fmt.Errorf("-shards %d: need at least 1", c.Shards)
	case c.Shards > 1 && (c.WALDir != "" || c.ReplicaOf != "" || c.ReplicationAddr != ""):
		return errors.New("-shards does not compose with durability or replication flags yet")
	case c.ReplicaOf != "" && c.WALDir == "":
		return errors.New("-replica-of requires -wal-dir (the follower's own durability directory)")
	case c.ReplicationAddr != "" && c.WALDir == "":
		return errors.New("-replication-addr requires -wal-dir (streaming replicates the WAL)")
	}
	return nil
}

// Daemon is a started backend behind its listeners.
type Daemon struct {
	cfg      Config
	what     string // names the backend in log lines: "" or "N shards "
	shell    *frontend.Shell
	node     *node // nil when sharded
	shutdown func()
	ln       net.Listener // nil when headless
	http     *http.Server // nil without HTTPAddr
	httpAddr net.Addr
}

// Start brings up the backend cfg describes and binds its listeners.
// Connections queue until Serve; Close releases everything Start
// acquired.
func Start(cfg Config) (*Daemon, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	scfg := server.Config{
		Budget:    cfg.BudgetMB << 20,
		Algorithm: cfg.Algorithm,
	}
	d := &Daemon{cfg: cfg}
	if cfg.Shards > 1 {
		c, err := startCluster(cfg.Scale, shard.Config{
			Shards:       cfg.Shards,
			Keys:         tpox.PartitionKeys(),
			Server:       scfg,
			TuneInterval: cfg.TuneInterval,
		})
		if err != nil {
			return nil, err
		}
		d.shell, d.what, d.shutdown = frontend.New(c), fmt.Sprintf("%d shards ", cfg.Shards), c.Close
	} else {
		scfg.TuneInterval = cfg.TuneInterval
		scfg.CheckpointBytes = cfg.CheckpointMB << 20
		n, err := startServer(scfg, cfg)
		if err != nil {
			return nil, err
		}
		d.node, d.shell, d.shutdown = n, frontend.New(n), n.shutdown
	}
	if err := d.listen(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// listen binds the line-protocol listener and starts the HTTP one.
func (d *Daemon) listen() error {
	// No -addr means headless: net.Listen("tcp", "") would NOT mean
	// "off", it binds a random port on all interfaces.
	if d.cfg.Addr != "" {
		ln, err := net.Listen("tcp", d.cfg.Addr)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		d.ln = ln
	}
	if d.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", d.cfg.HTTPAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		d.http, d.httpAddr = &http.Server{Handler: d.shell.HTTPHandler()}, hln.Addr()
		go d.http.Serve(hln)
		log.Printf("%sobservability on http://%s/ (metrics, trace/last, debug/pprof)", d.what, hln.Addr())
	}
	return nil
}

// Addr is the line-protocol listener's address, "" when headless.
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Serve serves the line protocol until stop is closed and returns when
// the last connection has ended. A headless daemon keeps its database,
// capture and tuning loop alive until stop is closed.
func (d *Daemon) Serve(stop <-chan struct{}) {
	if d.ln == nil {
		log.Printf("no listen address; running %sheadless (tune every %v)", d.what, d.cfg.TuneInterval)
		<-stop
		return
	}
	log.Printf("serving %son %s (tune every %v)", d.what, d.ln.Addr(), d.cfg.TuneInterval)
	d.shell.Serve(d.ln, stop)
}

// Close stops the HTTP listener and shuts the backend down, persisting
// what its mode promises. Call it once, after Serve has returned.
func (d *Daemon) Close() {
	if d.http != nil {
		d.http.Close()
	}
	if d.ln != nil {
		d.ln.Close() // Serve closes it too; this covers a Serve never called
	}
	d.shutdown()
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

func generate(scale int) (*storage.Database, error) {
	log.Printf("generating TPoX data (scale %d)", scale)
	return tpox.NewDatabase(scale)
}

// node is the unsharded backend: a server plus the daemon's replication
// role — primary (streaming the WAL to followers), follower (promotable
// via \promote), or neither. A follower that promotes becomes a primary
// in place.
//
// While following, the server is the follower's, and a follower that
// falls behind a primary checkpoint replaces it with one re-bootstrapped
// from the primary's snapshot. So every use fetches the server afresh:
// new sessions, \stats, /metrics and /trace/last reach the current one.
// A session opened before a re-bootstrap answers ERR … closed from then
// on, and its client reconnects.
type node struct {
	replAddr string // -replication-addr; a follower binds it at promotion

	mu       sync.Mutex
	srv      *server.Server // nil while following
	prim     *replica.Primary
	primAddr string            // the bound replication listener, once streaming
	fol      *replica.Follower // nil once promoted
}

// server returns the node's current server.
func (n *node) server() *server.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fol != nil {
		return n.fol.Server()
	}
	return n.srv
}

// The frontend.Backend methods, each on the current server.

func (n *node) NewSession() (*server.Session, error)  { return n.server().NewSession() }
func (n *node) TuneOnce() (*server.TuneReport, error) { return n.server().TuneOnce() }
func (n *node) Indexes() []server.IndexInfo           { return n.server().Indexes() }
func (n *node) Metrics() *obs.Registry                { return n.server().Metrics() }
func (n *node) Tracer() *obs.Tracer                   { return n.server().Tracer() }

func (n *node) Doc(table string, id int64) (*xmltree.Document, bool) {
	return n.server().Doc(table, id)
}

// startServer brings up the server cfg describes — following a
// primary, recovered from a WAL directory, or fresh over generated TPoX
// data — with its tuning loop and, on a durable primary, its
// replication listener.
func startServer(scfg server.Config, cfg Config) (*node, error) {
	if cfg.WALDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.Sync)
		if err != nil {
			return nil, err
		}
		scfg.SyncPolicy = policy
	}
	n := &node{replAddr: cfg.ReplicationAddr}
	switch {
	case cfg.ReplicaOf != "":
		f, err := replica.StartFollower(replica.FollowerConfig{PrimaryAddr: cfg.ReplicaOf, Dir: cfg.WALDir, Server: scfg})
		if err != nil {
			return nil, fmt.Errorf("follow %s: %w", cfg.ReplicaOf, err)
		}
		n.fol = f
		info := f.Info()
		log.Printf("following %s from LSN %d (epoch %d); read-only until \\promote",
			cfg.ReplicaOf, info.AppliedLSN, info.Epoch)
		// Followers don't tune: their catalog converges by replaying the
		// primary's index records. \promote starts the tuner.
		return n, nil
	case cfg.WALDir != "":
		scfg.WALDir = cfg.WALDir
		srv, info, err := server.Recover(scfg, func() (*storage.Database, error) { return generate(cfg.Scale) })
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		n.srv = srv
		log.Printf("%s (sync=%s)", info, scfg.SyncPolicy)
	default:
		db, err := generate(cfg.Scale)
		if err != nil {
			return nil, err
		}
		n.srv = server.New(db, scfg)
	}
	n.startAutoTune()
	if n.replAddr != "" {
		bound, err := n.streamWAL()
		if err != nil {
			n.srv.Close()
			return nil, err
		}
		log.Printf("streaming WAL to followers on %s (epoch %d)", bound, n.prim.Epoch())
	}
	return n, nil
}

func (n *node) startAutoTune() {
	n.server().StartAutoTune(logTune(func(rep *server.TuneReport) bool { return rep.Skipped }))
}

// streamWAL makes the node a replication primary on replAddr.
func (n *node) streamWAL() (bound string, err error) {
	p, err := replica.NewPrimary(n.server(), replica.PrimaryConfig{})
	if err != nil {
		return "", err
	}
	if bound, err = p.ListenAndServe(n.replAddr); err != nil {
		return "", fmt.Errorf("replication listen: %w", err)
	}
	n.mu.Lock()
	n.prim, n.primAddr = p, bound
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
// mints the next epoch, opens for writes, starts tuning, and — with
// -replication-addr — starts streaming to the remaining followers.
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
	n.srv, n.fol = f.Server(), nil
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
	log.Printf("promoted to primary at epoch %d (log at LSN %d)", epoch, n.server().WAL().LastLSN())
	return summary, nil
}

// StatsLines adds the replication role's lines to the server's.
func (n *node) StatsLines(vals map[string]float64) []string {
	lines := n.server().StatsLines(vals)
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
func (n *node) shutdown() {
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
	srv := n.server()
	if srv.WAL() != nil {
		// Durable mode: a shutdown checkpoint empties the WAL so the
		// next start replays nothing. (Skipping it would be correct
		// too — recovery would just replay the tail.)
		if err := srv.Checkpoint(); err != nil {
			log.Printf("xixad: checkpoint: %v", err)
		} else {
			log.Printf("checkpoint written (%d indexes)", len(srv.Catalog().Definitions()))
		}
	}
	srv.Close()
}

package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xixa/internal/core"
	"xixa/internal/server"
	"xixa/internal/tpox"
	"xixa/internal/wal"
)

// base is a daemon on a loopback port over scale-1 TPoX data, with the
// tuner off so nothing runs in the background of a test.
func base() Config {
	return Config{Addr: "127.0.0.1:0", Scale: 1, Sync: "always", Algorithm: core.AlgoTopDownFull, Shards: 1}
}

// running is a started daemon serving its socket until closed.
type running struct {
	*Daemon
	stop, served chan struct{}
	once         sync.Once
}

func start(t *testing.T, cfg Config) *running {
	t.Helper()
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &running{Daemon: d, stop: make(chan struct{}), served: make(chan struct{})}
	go func() {
		defer close(r.served)
		d.Serve(r.stop)
	}()
	t.Cleanup(r.close)
	return r
}

// close is a graceful shutdown: stop serving, then Close.
func (r *running) close() {
	r.once.Do(func() {
		close(r.stop)
		<-r.served
		r.Close()
	})
}

// client is one line-protocol connection.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &client{t: t, conn: conn, r: bufio.NewReader(conn)}
	if greeting := c.line(); !strings.HasPrefix(greeting, "OK ") {
		t.Fatalf("greeting %q", greeting)
	}
	return c
}

func (c *client) line() string {
	c.t.Helper()
	c.conn.SetDeadline(time.Now().Add(time.Minute))
	s, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return strings.TrimSuffix(s, "\n")
}

// do sends one line and returns its reply: the "| " lines and the
// closing OK or ERR line.
func (c *client) do(stmt string) (rows []string, last string) {
	c.t.Helper()
	c.conn.SetDeadline(time.Now().Add(time.Minute))
	if _, err := io.WriteString(c.conn, stmt+"\n"); err != nil {
		c.t.Fatal(err)
	}
	for {
		s := c.line()
		if !strings.HasPrefix(s, "| ") {
			return rows, s
		}
		rows = append(rows, s)
	}
}

// ok is do for a line that must succeed.
func (c *client) ok(stmt string) (rows []string, last string) {
	c.t.Helper()
	rows, last = c.do(stmt)
	if !strings.HasPrefix(last, "OK") {
		c.t.Fatalf("%s: %s", stmt, last)
	}
	return rows, last
}

func insertStmt(sym string) string {
	return fmt.Sprintf(`insert into SECURITY value <Security><Symbol>%s</Symbol><Yield>2.5</Yield></Security>`, sym)
}

func pointQuery(sym string) string {
	return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec`, sym)
}

// image is the recovery oracle: the database and catalog serialized.
func image(t *testing.T, s *server.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wal.SaveCheckpoint(&buf, s.DB(), s.Catalog().Definitions(), 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// eventually polls cond until it holds or a deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableRestartKeepsImage: a -sync always daemon takes inserts
// and an update over the wire and restarts two ways — after a graceful
// Close (shutdown checkpoint) and from a copy of its WAL directory
// taken after the last acknowledged write, as a kill would leave it
// (no shutdown checkpoint, the tail replays). Both restarts serve the
// pre-restart image byte for byte.
func TestDurableRestartKeepsImage(t *testing.T) {
	dir := t.TempDir()
	cfg := base()
	cfg.WALDir = dir
	d := start(t, cfg)
	c := dial(t, d.Addr())
	for i := 0; i < 5; i++ {
		c.ok(insertStmt(fmt.Sprintf("RESTART%d", i)))
	}
	c.ok(`update SECURITY set Yield = 7.25 where /Security[Symbol="RESTART2"]`)
	wantRows, _ := c.ok(pointQuery("RESTART2"))
	if len(wantRows) != 1 || !strings.Contains(wantRows[0], "7.25") {
		t.Fatalf("updated row = %q", wantRows)
	}
	want := image(t, d.node.server())
	killed := copyDir(t, dir)
	d.close()

	for _, tc := range []struct{ name, dir string }{
		{"after Close", dir},
		{"from the WAL directory of a killed daemon", killed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.WALDir = tc.dir
			r := start(t, cfg)
			if got := image(t, r.node.server()); !bytes.Equal(got, want) {
				t.Fatal("restarted image differs from the pre-restart image")
			}
			if rows, _ := dial(t, r.Addr()).ok(pointQuery("RESTART2")); strings.Join(rows, "\n") != strings.Join(wantRows, "\n") {
				t.Fatalf("restarted daemon answers %q, want %q", rows, wantRows)
			}
			r.close()
		})
	}
}

// TestPromoteOverSocketFencesOldPrimary: a follower attaches and
// \promotes over its socket, takes a write at tip+1, and binds its
// -replication-addr. A second follower attaches to it; once it has
// seen the new epoch and is pointed back at the old primary, the old
// primary fences itself and refuses writes over its socket.
func TestPromoteOverSocketFencesOldPrimary(t *testing.T) {
	pcfg := base()
	pcfg.WALDir, pcfg.ReplicationAddr = t.TempDir(), "127.0.0.1:0"
	p := start(t, pcfg)
	pc := dial(t, p.Addr())
	pc.ok(insertStmt("BEFORE-PROMOTE"))
	if _, last := pc.do(`\promote`); last != "ERR not a follower" {
		t.Fatalf(`\promote on a primary: %q`, last)
	}
	oldPrimary := p.node.primAddr

	fcfg := base()
	fcfg.WALDir, fcfg.ReplicaOf, fcfg.ReplicationAddr = t.TempDir(), oldPrimary, "127.0.0.1:0"
	f := start(t, fcfg)
	primTip := p.node.server().WAL().LastLSN()
	eventually(t, "the follower to apply the primary's tip", func() bool {
		_, fol := f.node.role()
		return fol.Info().AppliedLSN == primTip
	})
	rows, _ := pc.ok(`\stats`)
	if stats := strings.Join(rows, "\n"); !strings.Contains(stats, "replication: primary at epoch 1, ") || !strings.Contains(stats, "| replication follower ") {
		t.Fatalf("primary \\stats lacks its follower:\n%s", strings.Join(rows, "\n"))
	}

	fc := dial(t, f.Addr())
	if _, last := fc.do(insertStmt("ON-FOLLOWER")); !strings.Contains(last, "read-only") {
		t.Fatalf("follower accepted a write: %q", last)
	}
	rows, _ = fc.ok(`\stats`)
	if !strings.Contains(strings.Join(rows, "\n"), "replication: following at epoch 1") {
		t.Fatalf("follower \\stats:\n%s", strings.Join(rows, "\n"))
	}
	_, last := fc.ok(`\promote`)
	const bound = ", streaming to followers on "
	i := strings.Index(last, bound)
	if !strings.HasPrefix(last, "OK promoted at epoch 2") || i < 0 {
		t.Fatalf(`\promote: %q`, last)
	}
	newPrimary := strings.Fields(last[i+len(bound):])[0]
	tip := f.node.server().WAL().LastLSN()
	fc.ok(insertStmt("AFTER-PROMOTE"))
	if got := f.node.server().WAL().LastLSN(); got != tip+1 {
		t.Fatalf("write after promotion at LSN %d, want tip+1 = %d", got, tip+1)
	}

	scfg := base()
	scfg.WALDir, scfg.ReplicaOf = t.TempDir(), newPrimary
	s := start(t, scfg)
	eventually(t, "the second follower to reach the new primary's write", func() bool {
		_, fol := s.node.role()
		info := fol.Info()
		return info.Epoch == 2 && info.AppliedLSN == tip+1
	})
	s.close()

	scfg.ReplicaOf = oldPrimary
	if zombie, err := Start(scfg); err == nil || !strings.Contains(err.Error(), "fenced") {
		if zombie != nil {
			zombie.Close()
		}
		t.Fatalf("follower at epoch 2 pointed at the old primary: %v, want a fenced refusal", err)
	}
	if _, last := pc.do(insertStmt("ZOMBIE")); !strings.HasPrefix(last, "ERR ") || !strings.Contains(last, "fenced") {
		t.Fatalf("old primary answered an insert with %q, want ERR … fenced", last)
	}
}

// proxy forwards TCP connections to a target
// until hold is called: hold severs every forwarded connection and
// refuses new ones until release.
type proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	held  bool
	conns []net.Conn
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target}
	t.Cleanup(func() {
		ln.Close()
		p.hold()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			up, err := net.Dial("tcp", target)
			if p.held || err != nil {
				p.mu.Unlock()
				c.Close()
				if up != nil {
					up.Close()
				}
				continue
			}
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	return p
}

func (p *proxy) hold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held = true
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *proxy) release() {
	p.mu.Lock()
	p.held = false
	p.mu.Unlock()
}

// TestFollowerRebootstrapsOverSocket: a follower xixad cut off from
// its primary (through a proxy the test holds) while the primary takes
// writes and two checkpoints re-bootstraps from the primary's snapshot
// once the link is back, with no restart. A connection opened before
// then answers ERR … closed; a new connection reads the new image,
// \stats and /metrics report the new position, and \promote then
// takes a write.
func TestFollowerRebootstrapsOverSocket(t *testing.T) {
	pcfg := base()
	pcfg.WALDir, pcfg.ReplicationAddr = t.TempDir(), "127.0.0.1:0"
	p := start(t, pcfg)
	pc := dial(t, p.Addr())
	pc.ok(insertStmt("BEFORE-HOLD"))
	link := newProxy(t, p.node.primAddr)

	fcfg := base()
	fcfg.WALDir, fcfg.ReplicaOf, fcfg.HTTPAddr = t.TempDir(), link.ln.Addr().String(), "127.0.0.1:0"
	f := start(t, fcfg)
	_, fol := f.node.role()
	eventually(t, "the follower to apply the primary's tip", func() bool {
		return fol.Info().AppliedLSN == p.node.server().WAL().LastLSN()
	})
	old := dial(t, f.Addr())
	if rows, _ := old.ok(pointQuery("BEFORE-HOLD")); len(rows) != 1 {
		t.Fatalf("follower before the hold answers %q", rows)
	}

	link.hold()
	for i := 0; i < 2; i++ {
		pc.ok(insertStmt(fmt.Sprintf("HELD%d", i)))
		if err := p.node.server().Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	pc.ok(insertStmt("AFTER-CHECKPOINTS"))
	if applied, start := fol.Info().AppliedLSN, p.node.server().WAL().StartLSN(); applied >= start {
		t.Fatalf("follower at LSN %d, primary history starts at %d: the test needs the follower behind it", applied, start)
	}
	link.release()

	tip := p.node.server().WAL().LastLSN()
	eventually(t, "the follower to re-bootstrap and reach the primary's tip", func() bool {
		return fol.Info().AppliedLSN == tip
	})
	if !bytes.Equal(image(t, f.node.server()), image(t, p.node.server())) {
		t.Fatal("re-bootstrapped follower's image differs from the primary's")
	}
	if _, last := old.do(pointQuery("HELD1")); !strings.HasPrefix(last, "ERR ") || !strings.Contains(last, "closed") {
		t.Fatalf("connection from before the re-bootstrap answered %q, want ERR … closed", last)
	}
	fc := dial(t, f.Addr())
	if rows, _ := fc.ok(pointQuery("HELD1")); len(rows) != 1 {
		t.Fatalf("new connection to the re-bootstrapped follower answers %q", rows)
	}
	rows, _ := fc.ok(`\stats`)
	if stats := strings.Join(rows, "\n"); !strings.Contains(stats, fmt.Sprintf("replication: following at epoch 1, applied LSN %d,", tip)) {
		t.Fatalf("follower \\stats after the re-bootstrap:\n%s", stats)
	}
	resp, err := http.Get("http://" + f.httpAddr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("xixa_replica_applied_lsn %d\n", tip); !strings.Contains(string(body), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, body)
	}

	if _, last := fc.ok(`\promote`); !strings.HasPrefix(last, "OK promoted at epoch 2") {
		t.Fatalf(`\promote: %q`, last)
	}
	fc.ok(insertStmt("AFTER-PROMOTE"))
	if got := f.node.server().WAL().LastLSN(); got != tip+1 {
		t.Fatalf("write after promotion at LSN %d, want tip+1 = %d", got, tip+1)
	}
}

// TestStartRefusesConflictingFlags: every flag setting the daemon
// cannot serve as asked is refused by Start, and so is every listener
// it cannot bind.
func TestStartRefusesConflictingFlags(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	inUse := taken.Addr().String()

	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"-shards 0", func(c *Config) { c.Shards = 0 }, "-shards 0: need at least 1"},
		{"-shards -3", func(c *Config) { c.Shards = -3 }, "-shards -3: need at least 1"},
		{"-shards with -wal-dir", func(c *Config) { c.Shards, c.WALDir = 2, t.TempDir() }, "-shards does not compose"},
		{"-shards with -replica-of", func(c *Config) { c.Shards, c.ReplicaOf = 2, "127.0.0.1:1" }, "-shards does not compose"},
		{"-shards with -replication-addr", func(c *Config) { c.Shards, c.ReplicationAddr = 2, "127.0.0.1:0" }, "-shards does not compose"},
		{"-replica-of without -wal-dir", func(c *Config) { c.ReplicaOf = "127.0.0.1:1" }, "-replica-of requires -wal-dir"},
		{"-replication-addr without -wal-dir", func(c *Config) { c.ReplicationAddr = "127.0.0.1:0" }, "-replication-addr requires -wal-dir"},
		{"unknown -sync", func(c *Config) { c.WALDir, c.Sync = t.TempDir(), "sometimes" }, "sometimes"},
		{"unknown -sync without -wal-dir", func(c *Config) { c.Sync = "sometimes" }, "-sync: wal: unknown sync policy \"sometimes\""},
		{"unknown -algorithm", func(c *Config) { c.Algorithm = "topdwon-full" }, `-algorithm "topdwon-full": want one of greedy`},
		{"unknown -algorithm with -shards", func(c *Config) { c.Shards, c.Algorithm = 2, "" }, `-algorithm "": want one of`},
		{"-addr in use", func(c *Config) { c.Addr = inUse }, "listen: "},
		{"-http-addr in use", func(c *Config) { c.HTTPAddr = inUse }, "http listen: "},
		{"-replication-addr in use", func(c *Config) { c.WALDir, c.ReplicationAddr = t.TempDir(), inUse }, "replication listen: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.set(&cfg)
			d, err := Start(cfg)
			if err == nil {
				d.Close()
				t.Fatalf("Start accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestShardedAnswersLikeUnsharded: a two-shard daemon answers a point
// query with the same result lines as an unsharded one.
func TestShardedAnswersLikeUnsharded(t *testing.T) {
	sharded := base()
	sharded.Shards = 2
	plain, split := dial(t, start(t, base()).Addr()), dial(t, start(t, sharded).Addr())
	for _, sym := range []string{tpox.SymbolOf(0), tpox.SymbolOf(417), tpox.SymbolOf(999)} {
		want, _ := plain.ok(pointQuery(sym))
		got, _ := split.ok(pointQuery(sym))
		if len(want) == 0 {
			t.Fatalf("%s: no rows", sym)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: sharded rows %q, unsharded %q", sym, got, want)
		}
	}
}

// TestHeadlessServesHTTP: without -addr the daemon binds no line
// listener, still serves its HTTP surface, and Serve returns once
// stopped.
func TestHeadlessServesHTTP(t *testing.T) {
	cfg := base()
	cfg.Addr, cfg.HTTPAddr = "", "127.0.0.1:0"
	d := start(t, cfg)
	if d.Addr() != "" {
		t.Fatalf("headless daemon listens on %s", d.Addr())
	}
	resp, err := http.Get("http://" + d.httpAddr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "xixa_statements_total") {
		t.Fatalf("/metrics: %s\n%s", resp.Status, body)
	}
	d.close()
}

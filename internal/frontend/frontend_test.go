package frontend_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"xixa/internal/frontend"
	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
)

// target is one backend behind a live listener, plus what the test
// needs to know about it that the wire does not say.
type target struct {
	name         string
	addr         string
	stop         chan struct{}
	served       chan struct{} // closed when Serve returns
	greeting     string
	metricFamily string
	shards       int // 0: no \shards role
	sessionsOpen func() float64
	// exec runs a statement in-process, for the expected summary line.
	exec func(raw string) (*server.Result, error)
}

func serve(t *testing.T, sh *frontend.Shell, tg *target) *target {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tg.addr, tg.stop, tg.served = ln.Addr().String(), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tg.served)
		sh.Serve(ln, tg.stop)
	}()
	return tg
}

func cfg() server.Config { return server.Config{BuildAfter: 1, DropAfter: 1} }

func serverTarget(t *testing.T) *target {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	srv := server.New(db, cfg())
	t.Cleanup(srv.Close)
	return serve(t, frontend.New(srv), &target{
		name:         "server",
		greeting:     "OK xixad session 1",
		metricFamily: "xixa_statements_total",
		sessionsOpen: func() float64 { return obs.Values(srv.Metrics().Snapshot())["xixa_sessions_open"] },
		exec: func(raw string) (*server.Result, error) {
			sess, err := srv.NewSession()
			if err != nil {
				return nil, err
			}
			defer sess.Close()
			return sess.Execute(raw)
		},
	})
}

func clusterTarget(t *testing.T) *target {
	c, err := shard.NewCluster(shard.Config{
		Shards: 3,
		Keys:   map[string]string{"SECURITY": "/Security/Symbol"},
		Server: cfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable("SECURITY"); err != nil {
		t.Fatal(err)
	}
	return serve(t, frontend.New(c), &target{
		name:         "cluster",
		greeting:     "OK xixad cluster of 3 shards",
		metricFamily: "xixa_router_local_total",
		shards:       3,
		sessionsOpen: func() float64 {
			open := 0.0
			for i := 0; i < c.Shards(); i++ {
				open += obs.Values(c.Shard(i).Metrics().Snapshot())["xixa_sessions_open"]
			}
			return open
		},
		exec: func(raw string) (*server.Result, error) {
			sess, err := c.NewSession()
			if err != nil {
				return nil, err
			}
			defer sess.Close()
			return sess.Execute(raw)
		},
	})
}

// client is one protocol connection.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, tg *target) (*client, string) {
	t.Helper()
	conn, err := net.Dial("tcp", tg.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := &client{t: t, conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	_, greeting := c.reply()
	return c, greeting
}

// reply reads one reply: its "| " lines, prefix stripped, and its
// OK/ERR line.
func (c *client) reply() (body []string, status string) {
	c.t.Helper()
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			c.t.Fatalf("reading reply (body so far %q): %v", body, err)
		}
		line = strings.TrimSuffix(line, "\n")
		if rest, ok := strings.CutPrefix(line, "| "); ok {
			body = append(body, rest)
			continue
		}
		if !strings.HasPrefix(line, "OK") && !strings.HasPrefix(line, "ERR") {
			c.t.Fatalf("unframed line %q", line)
		}
		return body, line
	}
}

func (c *client) send(line string) (body []string, status string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		c.t.Fatal(err)
	}
	return c.reply()
}

// ok sends a line and fails unless the reply's status has the prefix.
func (c *client) ok(line, statusPrefix string) []string {
	c.t.Helper()
	body, status := c.send(line)
	if !strings.HasPrefix(status, statusPrefix) {
		c.t.Fatalf("%s\n  status %q, want prefix %q (body %q)", line, status, statusPrefix, body)
	}
	return body
}

// eof fails unless the server has closed the connection.
func (c *client) eof() {
	c.t.Helper()
	if line, err := c.r.ReadString('\n'); err == nil {
		c.t.Fatalf("connection still open: read %q", line)
	}
}

func insert(symbol, sector string, yield int) string {
	return fmt.Sprintf(`insert into SECURITY value <Security><Symbol>%s</Symbol><Name>%s</Name><Yield>%d</Yield><Sector>%s</Sector></Security>`,
		symbol, strings.Repeat("long name ", 12), yield, sector)
}

func point(symbol string) string {
	return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "%s" return $s`, symbol)
}

const (
	allDocs     = `for $s in SECURITY('SDOC')/Security return $s`
	techSector  = `for $s in SECURITY('SDOC')/Security where $s/Sector = "Tech" return $s`
	summaryForm = "OK %d results, %d nodes scanned, %d index entries, %d docs fetched"
)

// TestProtocol drives the one front end over both backends on a real
// socket: every command, every reply shape, and the two connection
// bugs the duplicated loops had.
func TestProtocol(t *testing.T) {
	for _, mk := range []func(*testing.T) *target{serverTarget, clusterTarget} {
		tg := mk(t)
		t.Run(tg.name, func(t *testing.T) { protocol(t, tg) })
	}
}

// TestOverlongPatternAnswersERR: a line whose predicate path would
// give the planner a pattern longer than 30 steps answers ERR, and the
// connection goes on serving. Before the length check at parse, the
// planner panicked on that line and took the daemon down with it.
func TestOverlongPatternAnswersERR(t *testing.T) {
	for _, mk := range []func(*testing.T) *target{serverTarget, clusterTarget} {
		tg := mk(t)
		t.Run(tg.name, func(t *testing.T) {
			c, _ := dial(t, tg)
			c.ok(insert("SYM001", "Tech", 1), "OK 0 results, ")
			long := `for $s in SECURITY('SDOC')/Security where $s` + strings.Repeat("/a", 31) + ` = "x" return $s`
			if _, status := c.send(long); !strings.HasPrefix(status, "ERR xquery: predicate: ") {
				t.Fatalf("31-step predicate path: %q", status)
			}
			c.ok(point("SYM001"), "OK 1 results, ")
			c.ok(`\tune`, "OK ")
		})
	}
}

func protocol(t *testing.T, tg *target) {
	c, greeting := dial(t, tg)
	if greeting != tg.greeting {
		t.Fatalf("greeting %q, want %q", greeting, tg.greeting)
	}

	// \tune before anything was captured.
	if _, status := c.send(`\tune`); !strings.Contains(status, "round 1: skipped") || !strings.HasPrefix(status, "OK ") {
		t.Fatalf(`\tune on an empty capture: %q`, status)
	}

	// Insert, then a query with more than five results: five abbreviated
	// previews, the remainder line, and the exact summary.
	for i := 0; i < 8; i++ {
		c.ok(insert(fmt.Sprintf("SYM%03d", i), []string{"Tech", "Energy"}[i%2], i), "OK 0 results, ")
	}
	want, err := tg.exec(allDocs)
	if err != nil {
		t.Fatal(err)
	}
	body, status := c.send(allDocs)
	wantStatus := fmt.Sprintf(summaryForm, 8, want.Stats.NodesScanned, want.Stats.IndexEntriesRead, want.Stats.DocsFetched)
	if status != wantStatus {
		t.Fatalf("summary %q, want %q", status, wantStatus)
	}
	if len(body) != 6 || body[5] != "... (3 more)" {
		t.Fatalf("preview of 8 results: %q", body)
	}
	for i, ln := range body[:5] {
		if wantPrefix := fmt.Sprintf("<Security><Symbol>SYM%03d</Symbol>", i); !strings.HasPrefix(ln, wantPrefix) || !strings.HasSuffix(ln, "...") || len(ln) != 123 {
			t.Fatalf("preview line %d = %q (len %d)", i, ln, len(ln))
		}
	}

	// Update and delete, seen by later queries.
	c.ok(`update SECURITY set Yield = 77 where /Security[Symbol="SYM003"]`, "OK ")
	if body := c.ok(point("SYM003"), "OK 1 results, "); len(body) != 1 {
		t.Fatalf("point query preview: %q", body)
	}
	if body := c.ok(`for $s in SECURITY('SDOC')/Security where $s/Yield = 77 return $s`, "OK 1 results, "); len(body) != 1 || !strings.Contains(body[0], "SYM003") {
		t.Fatalf("updated document not found by its new value: %q", body)
	}
	c.ok(`delete from SECURITY where /Security[Symbol="SYM004"]`, "OK ")
	c.ok(allDocs, "OK 7 results, ")

	// A malformed statement is an ERR and the connection stays usable.
	c.ok("selec nonsense", "ERR ")
	c.ok(`insert into NOSUCH value <X/>`, "ERR ")
	c.ok(point("SYM001"), "OK 1 results, ")

	// \explain: one plan where one place executes the statement, one
	// line per shard where the statement scatters.
	body, status = c.send(`\explain ` + point("SYM001"))
	if len(body) != 0 || !strings.Contains(status, "TBSCAN") || !strings.Contains(status, "(base cost ") {
		t.Fatalf(`\explain of a point query: %q %q`, body, status)
	}
	body, status = c.send(`\explain ` + techSector)
	if tg.shards == 0 {
		if len(body) != 0 || !strings.HasPrefix(status, "OK TBSCAN") {
			t.Fatalf(`\explain of a scan: %q %q`, body, status)
		}
	} else {
		if len(body) != tg.shards || status != fmt.Sprintf("OK %d plans", tg.shards) {
			t.Fatalf(`\explain of a scattered scan: %q %q`, body, status)
		}
		for i, ln := range body {
			if !strings.HasPrefix(ln, fmt.Sprintf("shard %d: TBSCAN", i)) {
				t.Fatalf(`\explain line %d = %q`, i, ln)
			}
		}
	}
	c.ok(`\explain not a statement`, "ERR ")

	// \tune after capture builds (hysteresis 1) and \indexes lists it.
	for i := 0; i < 20; i++ {
		c.ok(point(fmt.Sprintf("SYM%03d", i%8)), "OK ")
	}
	if _, status := c.send(`\tune`); !strings.HasPrefix(status, "OK ") || strings.Contains(status, "skipped") || !strings.Contains(status, "round 2: ") {
		t.Fatalf(`\tune after capture: %q`, status)
	}
	body, status = c.send(`\indexes`)
	var n, bytes int
	if _, err := fmt.Sscanf(status, "OK %d indexes, %d bytes total", &n, &bytes); err != nil || n == 0 || n != len(body) || bytes == 0 {
		t.Fatalf(`\indexes: %q %q (%v)`, body, status, err)
	}
	for _, ln := range body {
		if !strings.Contains(ln, " on SECURITY  (") || strings.HasPrefix(ln, "shard ") != (tg.shards > 0) {
			t.Fatalf(`\indexes line %q`, ln)
		}
	}

	// \stats, \stats json, \metrics.
	body = c.ok(`\stats`, "OK")
	if len(body) < 3 || !strings.HasPrefix(body[0], "session: ") || !strings.HasPrefix(body[len(body)-1], "tuner: ") {
		t.Fatalf(`\stats: %q`, body)
	}
	body = c.ok(`\stats json`, "OK")
	var stats struct {
		Session struct{ Executed, Errors int64 }
		Metrics []struct {
			Name string
		}
	}
	if err := json.Unmarshal([]byte(strings.Join(body, "\n")), &stats); err != nil {
		t.Fatalf(`\stats json does not parse: %v`, err)
	}
	if stats.Session.Executed == 0 || stats.Session.Errors == 0 || len(stats.Metrics) == 0 {
		t.Fatalf(`\stats json: %+v`, stats)
	}
	c.ok(`\stats yaml`, "ERR ")
	if body := c.ok(`\metrics`, "OK"); !strings.Contains("\n"+strings.Join(body, "\n"), "\n"+tg.metricFamily+" ") {
		t.Fatalf(`\metrics lacks %s`, tg.metricFamily)
	}

	// Roles: the same command set everywhere, ERR without the role.
	body, status = c.send(`\shards`)
	if tg.shards == 0 {
		if status != "ERR not sharded" {
			t.Fatalf(`\shards without the role: %q`, status)
		}
	} else if status != "OK" || len(body) != 1+tg.shards || !strings.HasPrefix(body[0], fmt.Sprintf("%d shards; router: ", tg.shards)) {
		t.Fatalf(`\shards: %q %q`, body, status)
	}
	c.ok(`\promote`, "ERR not a follower")
	c.ok(`\bogus`, `ERR unknown command \bogus`)

	// A client that disconnects mid-line: its cut-off statement does not
	// run, and its session is released.
	half, _ := dial(t, tg)
	if _, err := io.WriteString(half.conn, `delete from SECURITY where /Security`); err != nil {
		t.Fatal(err)
	}
	half.conn.Close()

	// A line past the cap gets an ERR, not a bare close.
	long, _ := dial(t, tg)
	go io.WriteString(long.conn, strings.Repeat("x", 1<<20+64)+"\n") // the server stops reading at the cap
	if _, status := long.reply(); status != "ERR line too long (max 1 MiB)" {
		t.Fatalf("over-long line: %q", status)
	}
	long.eof()

	// \quit closes this connection.
	c.ok(`\quit`, "OK bye")
	c.eof()

	// Graceful stop with an idle client connected: Serve returns, the
	// client is disconnected, and every session is released.
	idle, _ := dial(t, tg)
	close(tg.stop)
	select {
	case <-tg.served:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return with an idle client connected")
	}
	idle.eof()
	if open := tg.sessionsOpen(); open != 0 {
		t.Fatalf("xixa_sessions_open = %v after every connection ended", open)
	}
	if res, err := tg.exec(allDocs); err != nil || len(res.Refs) != 7 {
		t.Fatalf("documents after the cut-off delete: %d (%v), want 7", len(res.Refs), err)
	}
}

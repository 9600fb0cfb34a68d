// Package frontend is xixad's serving front end, written once: the
// line protocol's connection loop, its one command table, the reply
// format, and the accept loop with its graceful stop. Everything that
// executes, tunes or counts sits behind the Backend seam, which a
// server.Server and a shard.Cluster both satisfy as they are; the
// daemon (either mode) and xqshell (stdin/stdout instead of a socket)
// are the callers.
//
// One statement or command per line; a reply is zero or more "| ..."
// lines, then one "OK ..." or "ERR ..." line. The commands:
//
//	\indexes          list the materialized indexes with sizes
//	\tune             run one advisor round on the captured workload
//	\explain <stmt>   show the plan without executing (on a cluster: the
//	                  owning shard's, or one line per shard)
//	\stats [json]     session counters and the backend's view of its
//	                  registry (json: the full registry snapshot)
//	\metrics          the metrics registry in Prometheus text format
//	\shards           router counters and per-shard placement
//	\promote          promote this follower to primary
//	\quit             close the connection (also: quit)
//
// \shards and \promote answer ERR on a backend without that role.
package frontend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"xixa/internal/engine"
	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

// Session is one client's handle on a backend.
type Session interface {
	// Greeting is the line the connection is welcomed with.
	Greeting() string
	ExecuteStmt(*xquery.Statement) (*server.Result, error)
	// ExplainLines renders the statement's plan, one line per place it
	// would execute.
	ExplainLines(raw string) ([]string, error)
	Stats() (st engine.Stats, executed, errors int64)
	RetryStats() (retries int64, backoff time.Duration)
	Close()
}

// backend is the part of Backend that does not mention the backend's
// own session and report types.
type backend interface {
	// Indexes lists the materialized indexes, labeled with where each
	// lives; Doc fetches a result document for the preview lines.
	Indexes() []server.IndexInfo
	Doc(table string, id int64) (*xmltree.Document, bool)
	Metrics() *obs.Registry
	Tracer() *obs.Tracer
	// StatsLines renders the backend's part of the human \stats view
	// from one snapshot of its registry (obs.Values).
	StatsLines(vals map[string]float64) []string
}

// Backend is what the front end needs of whatever executes statements.
// Go has no covariant returns, so the two methods that hand out a
// backend's own session and report types are parameterized; New erases
// the parameters, and nothing past it is generic.
type Backend[S Session, R fmt.Stringer] interface {
	backend
	NewSession() (S, error)
	TuneOnce() (R, error)
}

// Roles a backend may have; a backend without one answers ERR to its
// command.
type (
	// Promoter is a follower that \promote can make the primary; the
	// summary goes on the OK line.
	Promoter interface {
		PromoteToPrimary() (summary string, err error)
	}
	// Sharded is a backend made of shards, which \shards lists.
	Sharded interface{ ShardLines() []string }
)

// Shell serves the line protocol over one backend.
type Shell struct {
	b        backend
	open     func() (Session, error)
	tune     func() (fmt.Stringer, error)
	promoter Promoter // nil: no such role
	sharded  Sharded  // nil: no such role
}

// New creates the shell over a backend.
func New[S Session, R fmt.Stringer](b Backend[S, R]) *Shell {
	sh := &Shell{b: b}
	// On error these hand back a typed nil inside the interface; every
	// caller checks the error first.
	sh.open = func() (Session, error) { return b.NewSession() }
	sh.tune = func() (fmt.Stringer, error) { return b.TuneOnce() }
	sh.promoter, _ = any(b).(Promoter)
	sh.sharded, _ = any(b).(Sharded)
	return sh
}

// HTTPHandler serves the backend's observability surface: /metrics,
// /trace/last and /debug/pprof.
func (sh *Shell) HTTPHandler() http.Handler { return obs.NewMux(sh.b.Metrics(), sh.b.Tracer()) }

// Serve accepts connections on ln and serves each on its own session
// until stop is closed or ln fails. Stopping closes the listener and
// ends every connection at its next read — an idle one at once, one
// whose line is executing after that line's reply is flushed — and
// Serve returns when the last connection has ended.
func (sh *Shell) Serve(ln net.Listener, stop <-chan struct{}) {
	var wg sync.WaitGroup
	// until runs f once stop or done is closed.
	until := func(done <-chan struct{}, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-stop:
			case <-done:
			}
			f()
		}()
	}
	accepting := make(chan struct{})
	until(accepting, func() { ln.Close() })
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		served := make(chan struct{})
		// An expired read deadline fails the blocked (or next) read
		// without touching a reply still being written.
		until(served, func() { conn.SetReadDeadline(time.Now()) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(served)
			defer conn.Close()
			sh.ServeConn(conn, conn)
		}()
	}
	close(accepting)
	wg.Wait()
}

// maxLine bounds one request line.
const maxLine = 1 << 20

// completeLines is bufio.ScanLines without its final unterminated
// line: a client that disconnects mid-line sent a cut-off statement,
// which must not run.
func completeLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && bytes.IndexByte(data, '\n') < 0 {
		return len(data), nil, nil
	}
	return bufio.ScanLines(data, atEOF)
}

// ServeConn runs one client's session: the greeting, then a reply per
// line read from r until EOF, a read error, or \quit.
func (sh *Shell) ServeConn(r io.Reader, w io.Writer) {
	sess, err := sh.open()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	defer sess.Close()
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "OK %s\n", sess.Greeting())
	out.Flush()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLine), maxLine)
	sc.Split(completeLines)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == "quit":
			fmt.Fprintln(out, "OK bye")
			return
		case line[0] != '\\':
			// Statements are the hot path: one byte decides, and the
			// line goes straight to the executor.
			sh.execute(sess, out, line)
		default:
			sh.command(sess, out, line)
		}
		out.Flush()
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		fmt.Fprintln(out, "ERR line too long (max 1 MiB)")
	}
}

// execute runs one statement and writes its reply: up to five result
// documents, abbreviated, then the summary line.
func (sh *Shell) execute(sess Session, out *bufio.Writer, line string) {
	stmt, err := xquery.Parse(line)
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	res, err := sess.ExecuteStmt(stmt)
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	for i, r := range res.Refs {
		if i >= 5 {
			fmt.Fprintf(out, "| ... (%d more)\n", len(res.Refs)-i)
			break
		}
		if doc, ok := sh.b.Doc(stmt.Table, r.Doc); ok {
			text := xmltree.SerializeString(doc)
			if len(text) > 120 {
				text = text[:120] + "..."
			}
			fmt.Fprintf(out, "| %s\n", text)
		}
	}
	fmt.Fprintf(out, "OK %d results, %d nodes scanned, %d index entries, %d docs fetched\n",
		len(res.Refs), res.Stats.NodesScanned, res.Stats.IndexEntriesRead, res.Stats.DocsFetched)
}

// commands is the one command table: a command returns its reply's
// "| " lines and what follows OK, or the error that follows ERR.
var commands = map[string]func(sh *Shell, sess Session, arg string) (body []string, summary string, err error){
	`\indexes`: (*Shell).indexes,
	`\tune`:    (*Shell).tuneOnce,
	`\explain`: (*Shell).explain,
	`\stats`:   (*Shell).stats,
	`\metrics`: (*Shell).metrics,
	`\shards`:  (*Shell).shards,
	`\promote`: (*Shell).promote,
}

// command runs one backslash command and writes its reply.
func (sh *Shell) command(sess Session, out *bufio.Writer, line string) {
	name, arg, _ := strings.Cut(line, " ")
	run, ok := commands[name]
	if !ok {
		fmt.Fprintf(out, "ERR unknown command %s\n", name)
		return
	}
	body, summary, err := run(sh, sess, strings.TrimSpace(arg))
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	for _, ln := range body {
		fmt.Fprintf(out, "| %s\n", ln)
	}
	fmt.Fprintln(out, strings.TrimSpace("OK "+summary))
}

func (sh *Shell) indexes(Session, string) (body []string, summary string, err error) {
	var total int64
	for _, ix := range sh.b.Indexes() {
		body = append(body, fmt.Sprintf("%s%s  (%d entries, %d levels, %d bytes)", ix.Label, ix.Def, ix.Entries, ix.Levels, ix.Bytes))
		total += ix.Bytes
	}
	return body, fmt.Sprintf("%d indexes, %d bytes total", len(body), total), nil
}

func (sh *Shell) tuneOnce(Session, string) ([]string, string, error) {
	rep, err := sh.tune()
	if err != nil {
		return nil, "", err
	}
	return nil, rep.String(), nil
}

func (sh *Shell) explain(sess Session, stmt string) ([]string, string, error) {
	plans, err := sess.ExplainLines(stmt)
	if err != nil || len(plans) != 1 {
		return plans, fmt.Sprintf("%d plans", len(plans)), err
	}
	return nil, plans[0], nil
}

// stats renders \stats: the session's counters, then either the
// backend's lines (every backend-wide number from one registry
// snapshot) or, for "json", the snapshot itself.
func (sh *Shell) stats(sess Session, format string) ([]string, string, error) {
	st, executed, errs := sess.Stats()
	retries, backoff := sess.RetryStats()
	snap := sh.b.Metrics().Snapshot()
	switch format {
	case "":
		session := fmt.Sprintf("session: %d statements, %d errors, %.0f work units, %d conflict retries, %s backoff slept",
			executed, errs, st.WorkUnits(), retries, backoff)
		return append([]string{session}, sh.b.StatsLines(obs.Values(snap))...), "", nil
	case "json":
		b, err := json.MarshalIndent(map[string]any{
			"session": map[string]any{
				"executed": executed, "errors": errs, "work_units": st.WorkUnits(),
				"retries": retries, "backoff_ns": backoff.Nanoseconds(),
			},
			"metrics": snap,
		}, "", "  ")
		return strings.Split(string(b), "\n"), "", err
	}
	return nil, "", errors.New(`usage: \stats [json]`)
}

func (sh *Shell) metrics(Session, string) ([]string, string, error) {
	var buf bytes.Buffer
	err := sh.b.Metrics().WritePrometheus(&buf)
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"), "", err
}

func (sh *Shell) shards(Session, string) ([]string, string, error) {
	if sh.sharded == nil {
		return nil, "", errors.New("not sharded")
	}
	return sh.sharded.ShardLines(), "", nil
}

func (sh *Shell) promote(Session, string) ([]string, string, error) {
	if sh.promoter == nil {
		return nil, "", errors.New("not a follower")
	}
	summary, err := sh.promoter.PromoteToPrimary()
	return nil, summary, err
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reply is one statement's answer on xixad's line protocol: zero or
// more "| ..." lines, then one "OK ..." or "ERR ..." line.
type reply struct {
	ok      bool
	summary string   // the OK/ERR line without its prefix
	body    []string // "| " lines with the prefix stripped; kept only on request
	// Statement replies: "OK n results, a nodes scanned, b index
	// entries, c docs fetched". Negative when the OK line has another
	// shape (meta commands).
	results, nodesScanned, indexEntries, docsFetched int64
}

// conn is one closed-loop client connection.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

// dial opens a connection and consumes the daemon's greeting line.
func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
	rep, err := cn.read(false)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("greeting: %w", err)
	}
	if !rep.ok {
		c.Close()
		return nil, fmt.Errorf("greeting: ERR %s", rep.summary)
	}
	return cn, nil
}

func (cn *conn) close() { cn.c.Close() }

// roundTrip sends one line and reads its reply. keepBody retains the
// "| " lines (meta commands); statement traffic drops them unparsed.
func (cn *conn) roundTrip(line string, keepBody bool) (reply, error) {
	if _, err := io.WriteString(cn.c, line+"\n"); err != nil {
		return reply{}, err
	}
	return cn.read(keepBody)
}

// readLine returns the next line without its terminator, whatever its
// length: a line longer than the reader's buffer is accumulated.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

var (
	prefixBody = []byte("| ")
	prefixOK   = []byte("OK")
	prefixERR  = []byte("ERR")
)

func (cn *conn) read(keepBody bool) (reply, error) {
	var rep reply
	for {
		line, err := readLine(cn.r)
		if err != nil {
			return rep, err
		}
		switch {
		case bytes.HasPrefix(line, prefixBody):
			if keepBody {
				rep.body = append(rep.body, string(line[2:]))
			}
		case bytes.HasPrefix(line, prefixOK):
			rep.ok = true
			rest := bytes.TrimSpace(line[2:])
			var shaped bool
			rep.results, rep.nodesScanned, rep.indexEntries, rep.docsFetched, shaped = parseStatementOK(rest)
			if !shaped || keepBody {
				rep.summary = string(rest)
			}
			return rep, nil
		case bytes.HasPrefix(line, prefixERR):
			rep.summary = strings.TrimSpace(string(line[3:]))
			return rep, nil
		default:
			return rep, fmt.Errorf("protocol: unframed line %q", truncate(string(line), 80))
		}
	}
}

// statementOKWords are the words between the four counters of a
// statement's OK line: "n results, a nodes scanned, b index entries, c
// docs fetched".
var statementOKWords = [4][]byte{
	[]byte(" results, "), []byte(" nodes scanned, "), []byte(" index entries, "), []byte(" docs fetched"),
}

// parseStatementOK reads the four counters of a statement's OK line
// without allocating (it runs once per measured operation). shaped is
// false, and the counters -1, when the line has another shape.
func parseStatementOK(s []byte) (results, nodes, entries, docs int64, shaped bool) {
	var v [4]int64
	for i, word := range statementOKWords {
		n, digits := int64(0), 0
		for digits < len(s) && s[digits] >= '0' && s[digits] <= '9' {
			n = n*10 + int64(s[digits]-'0')
			digits++
		}
		if digits == 0 || !bytes.HasPrefix(s[digits:], word) {
			return -1, -1, -1, -1, false
		}
		v[i] = n
		s = s[digits+len(word):]
	}
	if len(s) != 0 {
		return -1, -1, -1, -1, false
	}
	return v[0], v[1], v[2], v[3], true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// daemon is one spawned xixad process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	done   chan struct{} // closed once Wait returned
}

// spawn starts xixad with -addr 127.0.0.1:0 and -tune-interval 0 plus
// args, and returns once it logs its listening address. The tuner and
// its auto-checkpoint stay off so nothing runs in the background of a
// measured window.
func spawn(bin string, args ...string) (*daemon, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-tune-interval", "0"}, args...)
	cmd := exec.Command(bin, full...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = pw
	cmd.Stdout = pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain the log for the daemon's whole life so it never blocks
		// on a full pipe; the listening address is announced once.
		defer close(d.done)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
			if i := strings.Index(line, " on 127.0.0.1:"); i >= 0 && strings.Contains(line, "serving") {
				rest := line[i+4:]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrc <- rest:
				default:
				}
			}
		}
		cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("xixad exited before listening:\n%s", d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("xixad did not listen within 60s")
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// peakRSSMiB reads VmHWM, a process's resident-set high-water mark,
// from /proc.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the daemon's metrics registry over an idle control
// connection: sample name (labels included) → value.
func (cn *conn) scrape() (map[string]float64, error) {
	rep, err := cn.roundTrip(`\metrics`, true)
	if err != nil {
		return nil, err
	}
	if !rep.ok {
		return nil, fmt.Errorf(`\metrics: ERR %s`, rep.summary)
	}
	return parseMetrics(rep.body), nil
}

// parseMetrics parses Prometheus text-format sample lines.
func parseMetrics(lines []string) map[string]float64 {
	out := make(map[string]float64, len(lines))
	for _, ln := range lines {
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			continue
		}
		out[ln[:i]] = v
	}
	return out
}

// histDelta is the change of one Prometheus histogram between two
// scrapes.
type histDelta struct {
	sum, count float64
	le         []float64 // bucket upper bounds, ascending, +Inf last
	cum        []float64 // cumulative count deltas per bucket
}

func histogramDelta(before, after map[string]float64, name string) histDelta {
	h := histDelta{
		sum:   after[name+"_sum"] - before[name+"_sum"],
		count: after[name+"_count"] - before[name+"_count"],
	}
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		s := strings.TrimSuffix(k[len(prefix):], `"}`)
		le, err := strconv.ParseFloat(s, 64) // "+Inf" parses
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		h.le = append(h.le, b.le)
		h.cum = append(h.cum, b.cum)
	}
	return h
}

// mean is the histogram's mean observation.
func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it (the Prometheus rule); the buckets double, so
// the estimate is good to a factor of two at worst.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	lo, below := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			hi := h.le[i]
			if hi > 1e300 || c == below { // +Inf bucket: no upper edge
				return lo
			}
			return lo + (hi-lo)*(rank-below)/(c-below)
		}
		lo, below = h.le[i], c
	}
	return lo
}

// echoRTT measures the generator's own floor: the same client code
// against a listener in this process that answers every line with a
// bare OK. It returns the median round trip in microseconds.
func echoRTT(line string, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		w := bufio.NewWriter(c)
		fmt.Fprintln(w, "OK echo")
		w.Flush()
		r := bufio.NewReaderSize(c, 64<<10)
		for {
			if _, err := readLine(r); err != nil {
				return
			}
			fmt.Fprintln(w, "OK")
			w.Flush()
		}
	}()
	cn, err := dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := cn.roundTrip(line, false); err != nil {
			cn.close()
			<-served
			return 0, err
		}
		lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
	}
	cn.close()
	<-served
	return median(lat), nil
}

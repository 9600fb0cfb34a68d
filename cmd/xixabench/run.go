package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// clients is the number of closed-loop connections. Clients of a
// one-statement-per-line synchronous protocol wait for their reply, so
// a closed loop is the honest shape; the box has two cores shared by
// generator and daemon, and more connections would measure the
// scheduler.
const clients = 2

// wireWorkload describes one workload driven over xixad's socket.
type wireWorkload struct {
	name string
	// tuned workloads prime the capture and issue \tune twice in
	// set-up, and require every query reply to have read index entries.
	tuned bool
	// durable workloads run xixad -wal-dir <dir> -sync always and end
	// with the kill -9 / recover / verify check.
	durable bool
	// shards > 1 runs xixad -shards N.
	shards int
	// streams builds the workload's pool from the oracle and the seed
	// and returns the per-client stream constructor.
	streams func(e expecter, seed int64) (func(client int) stream, error)
}

func pointStreams(e expecter, seed int64) (func(int) stream, error) {
	pool, err := newPointPool(e)
	if err != nil {
		return nil, err
	}
	return func(c int) stream { return newPointStream(pool, seed, c) }, nil
}

func scanStreams(e expecter, seed int64) (func(int) stream, error) {
	pool, err := newScanPool(e, seed)
	if err != nil {
		return nil, err
	}
	return func(c int) stream { return newScanStream(pool, seed, c) }, nil
}

func writeStreams(_ expecter, seed int64) (func(int) stream, error) {
	return func(c int) stream { return newWriteStream(seed, c, clients) }, nil
}

var wireWorkloads = []wireWorkload{
	{name: "point-tuned", tuned: true, streams: pointStreams},
	{name: "scan-untuned", streams: scanStreams},
	{name: "write-durable", tuned: true, durable: true, streams: writeStreams},
	{name: "scatter-4", shards: 4, streams: scanStreams}, // the identical stream as scan-untuned
}

// args are the xixad flags beyond -addr and -tune-interval; dir is a
// fresh directory for the workloads that need storage. The flush
// policy is fixed at always and recorded with the result.
func (wl *wireWorkload) args(dir string) []string {
	var a []string
	if wl.durable {
		a = append(a, "-wal-dir", dir, "-sync", "always")
	}
	if wl.shards > 1 {
		a = append(a, "-shards", fmt.Sprint(wl.shards))
	}
	return a
}

// instance is one daemon after set-up.
type instance struct {
	d       *daemon
	ctl     *conn // idle control connection: \metrics, \indexes
	catalog []string
	dir     string
}

func (in *instance) stop() {
	if in.ctl != nil {
		in.ctl.close()
	}
	in.d.kill()
}

// setUp spawns the daemon and brings it to the state the measured run
// starts from: data generated (or recovered), and for tuned workloads
// the capture primed, \tune issued twice and the advisor's indexes
// built online. Its wall time is the workload's setup_s.
func (wl *wireWorkload) setUp(bin, dir string) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := spawn(bin, wl.args(dir)...)
	if err != nil {
		return nil, err
	}
	in := &instance{d: d, dir: dir}
	if in.ctl, err = dial(d.addr); err != nil {
		in.stop()
		return nil, err
	}
	if !wl.tuned {
		return in, nil
	}
	fail := func(err error) (*instance, error) {
		in.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for _, q := range primeStatements() {
		rep, err := in.ctl.roundTrip(q, false)
		if err != nil {
			return fail(err)
		}
		if !rep.ok {
			return fail(fmt.Errorf("prime: ERR %s", rep.summary))
		}
	}
	// The tuner builds a recommendation it has seen twice in a row.
	for i := 0; i < 2; i++ {
		rep, err := in.ctl.roundTrip(`\tune`, true)
		if err != nil {
			return fail(err)
		}
		if !rep.ok {
			return fail(fmt.Errorf(`\tune: ERR %s`, rep.summary))
		}
	}
	rep, err := in.ctl.roundTrip(`\indexes`, true)
	if err != nil {
		return fail(err)
	}
	if !rep.ok || len(rep.body) < len(keyTables) {
		return fail(fmt.Errorf(`\indexes: want %d key indexes, got %q %q`, len(keyTables), rep.body, rep.summary))
	}
	in.catalog = rep.body
	return in, nil
}

// ledger is one client's record of acknowledged writes.
type ledger struct {
	inserted, deleted []string
	xmlBytes          int64
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	win               *windows
	attempted, failed int64
	led               ledger
	firstFailure      string
	latSumUs          float64 // over warm-up and run, for xixad.wire_us
	latN              int64
}

// drive runs one closed-loop client: warm-up, then the measured run
// cut into windows. Every reply is checked: an ERR, a wrong result
// count, a tuned query that read no index entries and a dropped
// connection each count as failed and contribute no latency.
func drive(cn *conn, st stream, tuned bool, start time.Time, warm, run time.Duration) *clientResult {
	res := &clientResult{win: newWindows(nWindows, run/time.Duration(nWindows))}
	for {
		o := st.next()
		t0 := time.Now()
		if t0.Sub(start) >= warm+run {
			return res
		}
		res.attempted++
		if _, err := cn.c.Write(o.line); err != nil {
			res.fail("send: " + err.Error())
			return res
		}
		rep, err := cn.read(false)
		t1 := time.Now()
		if err != nil {
			res.fail("dropped connection: " + err.Error())
			return res
		}
		switch {
		case !rep.ok:
			res.fail("ERR " + rep.summary + " for " + truncate(o.stmt(), 80))
			continue
		case rep.results != o.want:
			res.fail(fmt.Sprintf("%d results, want %d, for %s", rep.results, o.want, truncate(o.stmt(), 80)))
			continue
		case tuned && o.kind != opInsert && rep.indexEntries <= 0:
			res.fail("no index entries read by " + truncate(o.stmt(), 80))
			continue
		}
		switch o.kind {
		case opInsert:
			res.led.inserted = append(res.led.inserted, o.id)
			res.led.xmlBytes += int64(o.xml)
		case opDelete:
			res.led.deleted = append(res.led.deleted, o.id)
		}
		res.latSumUs += float64(t1.Sub(t0)) / float64(time.Microsecond)
		res.latN++
		if t0.Sub(start) >= warm {
			res.win.add(t1.Sub(start)-warm, t1.Sub(t0))
		}
	}
}

func (r *clientResult) fail(why string) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = why
	}
}

// wireRun is one wire workload's run, before it is reduced to metrics.
type wireRun struct {
	setupS            []float64
	win               *windows
	attempted, failed int64
	ackedLost         int64
	recoverS          float64
	firstFailure      string
	peakRSSMiB        float64
	catalog           []string
	before, after     map[string]float64 // \metrics around the measured run
	meanLatUs         float64
	xmlBytes          int64 // inserted XML acknowledged during the measured scrape interval
	fsType            string
}

// runOptions are the durations of one run.
type runOptions struct {
	warm, run time.Duration
	setups    int // set-ups per run; setup_s is their median
}

// runWire sets the workload up opt.setups times (the last one is kept),
// drives it with the closed-loop clients, and for durable workloads
// ends with the crash check.
func runWire(wl *wireWorkload, bin, workDir string, newStream func(client int) stream, opt runOptions) (*wireRun, error) {
	out := &wireRun{}
	var err error
	if wl.durable {
		if out.fsType, err = fsTypeOf(workDir); err != nil {
			return nil, err
		}
		if out.fsType == "tmpfs" {
			return nil, fmt.Errorf("%s is on tmpfs; fsync there measures nothing", workDir)
		}
	}
	var in *instance
	for i := 0; i < opt.setups; i++ {
		if in != nil {
			in.stop()
			os.RemoveAll(in.dir)
		}
		start := time.Now()
		in, err = wl.setUp(bin, filepath.Join(workDir, fmt.Sprintf("%s-%d", wl.name, i)))
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	defer func() {
		in.stop()
		os.RemoveAll(in.dir)
	}()
	out.catalog = in.catalog

	conns := make([]*conn, clients)
	for i := range conns {
		if conns[i], err = dial(in.d.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}

	// The scrapes bracket warm-up and run together: statements of the
	// warm-up are in both the client's mean and the daemon's, so the
	// difference of means is over one population.
	if out.before, err = in.ctl.scrape(); err != nil {
		return nil, err
	}
	results := make([]*clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = drive(conns[i], newStream(i), wl.tuned, start, opt.warm, opt.run)
		}(i)
	}
	wg.Wait()
	if out.after, err = in.ctl.scrape(); err != nil {
		return nil, err
	}
	if out.peakRSSMiB, err = peakRSSMiB(in.d.cmd.Process.Pid); err != nil {
		return nil, err
	}

	out.win = results[0].win
	var latSum float64
	var latN int64
	var led ledger
	for i, r := range results {
		if i > 0 {
			out.win.merge(r.win)
		}
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstFailure == "" {
			out.firstFailure = r.firstFailure
		}
		latSum += r.latSumUs
		latN += r.latN
		led.inserted = append(led.inserted, r.led.inserted...)
		led.deleted = append(led.deleted, r.led.deleted...)
		led.xmlBytes += r.led.xmlBytes
	}
	if latN > 0 {
		out.meanLatUs = latSum / float64(latN)
	}
	out.xmlBytes = led.xmlBytes

	if wl.durable {
		for _, c := range conns {
			c.close()
		}
		if err := crashCheck(wl, bin, in, &led, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crashCheck kills the daemon with SIGKILL, restarts it on the same
// WAL directory and verifies that every acknowledged insert not later
// acknowledged as deleted is readable and every acknowledged delete is
// gone. kill -9 keeps the operating system's cache, so this checks log
// replay, not the device.
func crashCheck(wl *wireWorkload, bin string, in *instance, led *ledger, out *wireRun) error {
	in.ctl.close()
	in.ctl = nil
	in.d.kill()
	start := time.Now()
	d, err := spawn(bin, wl.args(in.dir)...)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	in.d = d
	cn, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	out.recoverS = time.Since(start).Seconds()

	gone := make(map[string]bool, len(led.deleted))
	for _, id := range led.deleted {
		gone[id] = true
	}
	probe := func(id string, want int64) error {
		rep, err := cn.roundTrip(orderLookup(id), false)
		if err != nil {
			return fmt.Errorf("durability probe: %w", err)
		}
		out.attempted++
		if !rep.ok || rep.results != want {
			out.ackedLost++
			out.failed++
			if out.firstFailure == "" {
				out.firstFailure = fmt.Sprintf("after kill -9, order %s: %d results, want %d", id, rep.results, want)
			}
		}
		return nil
	}
	for _, id := range led.inserted {
		want := int64(1)
		if gone[id] {
			want = 0
		}
		if err := probe(id, want); err != nil {
			return err
		}
	}
	return nil
}

// fsTypeOf names the filesystem a directory is on.
func fsTypeOf(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", err
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0xEF53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("magic-%#x", uint32(st.Type)), nil
}

// Command xixabench is the repository's one benchmark: five named
// workloads — four over xixad's real socket, one over the advisor
// in-process — reporting end-to-end metrics with fixed regression
// bounds, and a per-layer account taken from outside the program. See
// README.md in this directory.
//
//	xixabench [-seed 1] [-seconds 20] [-trace 0|1] [-out dir] [-xixad path]
//	xixabench -workload point-tuned -seed 3 -seconds 20 -trace 0
//	xixabench -compare set-a.json set-b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The run shape. BENCHMARK.json's run_seconds is defaultSeconds; every
// timing metric is the median of nWindows per-window values.
const (
	defaultSeconds = 20
	nWindows       = 10
	warmSeconds    = 3
	// setupsPerRun set-ups are timed per run; setup_s is their median.
	setupsPerRun = 7
	// thinWindowSamples is the per-window sample count below which a
	// per-window p95 has fewer than 50 samples beyond it. A thinner
	// window is reported in the result's notes, not failed: when the
	// sandbox stalls (a window with a tenth of its usual samples was
	// seen), a benchmark that exits non-zero measures nothing at all.
	thinWindowSamples = 1000
)

// result is one workload's outcome in the set's JSON.
type result struct {
	Attempted    int64              `json:"attempted_ops"`
	Failed       int64              `json:"failed_ops"`
	AckedLost    *int64             `json:"acked_lost,omitempty"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Metrics      map[string]measure `json:"metrics,omitempty"`
	Layers       map[string]measure `json:"layers,omitempty"`
	LayerTable   []layerRow         `json:"layer_table,omitempty"`
	Catalog      []string           `json:"catalog,omitempty"`
	Notes        map[string]string  `json:"notes,omitempty"`
}

// set is the one result schema: what a run of the command writes.
type set struct {
	Env       map[string]any     `json:"env"`
	Claim     any                `json:"claim"` // always null: the benchmark claims no gain
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xixabench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Int64("seed", 1, "seed of every generated parameter")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
	out := fs.String("out", "", "directory for the set's JSON and trace-<workload>.json (default .bench_build/out)")
	xixad := fs.String("xixad", "", "prebuilt xixad binary (default: build ./cmd/xixad)")
	compare := fs.Bool("compare", false, "compare two sets: xixabench -compare a.json b.json")
	smoke := fs.Bool("smoke", false, "1 s per workload, no minimum sample counts; for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: xixabench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "xixabench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *out, xixad: *xixad}
	if err := cfg.prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "xixabench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	names := []string{*workload}
	if *workload == "" {
		names = workloadNames()
	}
	s := &set{Env: cfg.env(), Workloads: make(map[string]*result)}
	// A single workload runs the one pass -trace names (the driver's
	// contract). A set runs every workload untraced and then, with
	// -trace 1, the traced pass — after the untraced runs, never mixed
	// with them.
	passes := []bool{cfg.trace}
	if *workload == "" && cfg.trace {
		passes = []bool{false, true}
	}
	for _, traced := range passes {
		for _, name := range names {
			r, err := cfg.runWorkload(name, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xixabench: %s: %v\n", name, err)
				return 1
			}
			printResult(name, r)
			s.Workloads[name] = mergeResult(s.Workloads[name], r)
		}
	}
	bad := false
	for _, r := range s.Workloads {
		bad = bad || r.Failed > 0
	}
	// A set and a single workload's run never overwrite each other.
	path := filepath.Join(cfg.outDir, fmt.Sprintf("set-seed%d.json", cfg.seed))
	if *workload != "" {
		path = filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", *workload, cfg.seed, *trace))
	}
	if err := writeJSON(path, s); err != nil {
		fmt.Fprintln(os.Stderr, "xixabench:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	if *workload != "" {
		// The driver's contract: the last line is one JSON object.
		fmt.Println(contractLine(s.Workloads[*workload], cfg.trace))
	}
	if bad {
		return 1
	}
	return 0
}

// config is one invocation's settings and the paths it works in.
type config struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	outDir  string
	xixad   string
	root    string // the repository checkout
	workDir string // scratch for WAL directories, removed at exit
	orc     *oracle
}

// prepare finds the checkout, builds xixad unless one was given, and
// builds the oracle.
func (c *config) prepare() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	c.root = root
	build := filepath.Join(root, ".bench_build")
	if c.outDir == "" {
		c.outDir = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	// WAL directories live under the checkout so write-durable's fsync
	// hits the repository's filesystem, not a tmpfs /tmp.
	c.workDir = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return err
	}
	if c.xixad == "" {
		c.xixad = filepath.Join(build, "bin", "xixad")
		cmd := exec.Command("go", "build", "-o", c.xixad, "./cmd/xixad")
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build ./cmd/xixad: %w", err)
		}
	} else if c.xixad, err = filepath.Abs(c.xixad); err != nil {
		return err
	}
	c.orc, err = newOracle()
	return err
}

// findRoot walks up from the working directory to the checkout: the
// directory whose go.mod declares module xixa.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module xixa\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the xixa repository (no go.mod declaring module xixa above the working directory)")
		}
		dir = parent
	}
}

func (c *config) options() runOptions {
	opt := runOptions{
		warm:   warmSeconds * time.Second,
		run:    time.Duration(c.seconds) * time.Second,
		setups: setupsPerRun,
	}
	if c.smoke {
		opt.warm, opt.run, opt.setups = 200*time.Millisecond, time.Second, 1
	}
	return opt
}

func (c *config) runWorkload(name string, traced bool) (*result, error) {
	opt := c.options()
	if name == adviseName {
		if traced {
			return c.traceAdvise(opt)
		}
		return c.measureAdvise(opt)
	}
	for i := range wireWorkloads {
		wl := &wireWorkloads[i]
		if wl.name != name {
			continue
		}
		if traced {
			return c.traceWire(wl, opt)
		}
		return c.measureWire(wl, opt)
	}
	return nil, fmt.Errorf("no such workload (have %s)", strings.Join(workloadNames(), ", "))
}

// mergeResult folds a workload's traced pass into its untraced result.
func mergeResult(have, r *result) *result {
	if have == nil {
		return r
	}
	have.Attempted += r.Attempted
	have.Failed += r.Failed
	if have.FirstFailure == "" {
		have.FirstFailure = r.FirstFailure
	}
	if have.AckedLost != nil && r.AckedLost != nil {
		*have.AckedLost += *r.AckedLost
	}
	have.Layers, have.LayerTable = r.Layers, r.LayerTable
	for k, v := range r.Notes {
		if have.Notes == nil {
			have.Notes = map[string]string{}
		}
		have.Notes[k] = v
	}
	return have
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDefs {
		out = append(out, d.Name)
	}
	return out
}

// measureWire is a wire workload's untraced run reduced to the
// end-to-end metrics.
func (c *config) measureWire(wl *wireWorkload, opt runOptions) (*result, error) {
	newStream, err := wl.streams(c.orc, c.seed)
	if err != nil {
		return nil, err
	}
	wr, err := runWire(wl, c.xixad, c.workDir, newStream, opt)
	if err != nil {
		return nil, err
	}
	total, _ := wr.win.samples()
	rate, pct := wr.win.perWindow(50)
	r := wireResult(wl, wr)
	r.Metrics = map[string]measure{
		"ops_per_s":   summarize(rate, "1/s", total),
		"p50_us":      summarize(pct[0], "us", total),
		"setup_s":     summarize(wr.setupS, "s", len(wr.setupS)),
		"peak_rss_mb": exact(wr.peakRSSMiB, "MiB"),
	}
	r.Layers = tailLayers(wr.win)
	return r, nil
}

// wireResult fills the parts of a result that both passes share.
func wireResult(wl *wireWorkload, wr *wireRun) *result {
	r := &result{
		Attempted:    wr.attempted,
		Failed:       wr.failed,
		FirstFailure: wr.firstFailure,
		Catalog:      wr.catalog,
		Notes:        map[string]string{},
	}
	if _, minWin := wr.win.samples(); minWin < thinWindowSamples {
		r.Notes["thin_window"] = fmt.Sprintf(
			"a window holds %d samples, fewer than %d: its p95 is thin, and the box stalled or the run is short",
			minWin, thinWindowSamples)
	}
	if wl.durable {
		lost := wr.ackedLost
		r.AckedLost = &lost
		r.Notes["sync"] = "always"
		r.Notes["wal_fs"] = wr.fsType
		r.Notes["recover_s"] = fmt.Sprintf("%.3f", wr.recoverS)
		r.Notes["crash_check"] = "kill -9 keeps the OS cache: this checks log replay, not the device"
	}
	return r
}

// measureAdvise is the advise workload's untraced run.
func (c *config) measureAdvise(opt runOptions) (*result, error) {
	var setups []float64
	var env *adviseEnv
	for i := 0; i < opt.setups; i++ {
		start := time.Now()
		var err error
		if env, err = newAdviseEnv(c.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ar, err := runAdvise(env, opt.warm, opt.run)
	if err != nil {
		return nil, err
	}
	if len(ar.roundUs) == 0 {
		return nil, errors.New("no advisor round completed inside the measured run")
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	// Rounds are too few for per-window percentiles (about three a
	// second): the run is one window.
	p50 := summarize(ar.roundUs, "us", len(ar.roundUs))
	r := &result{Attempted: ar.attempted, Failed: ar.failed}
	if ar.failed > 0 {
		r.FirstFailure = "an advisor round's configurations, optimizer calls or estimated speedup differ from the Parallelism-1 reference"
	}
	r.Metrics = map[string]measure{
		"ops_per_s":   exact(float64(len(ar.roundUs))/ar.elapsed.Seconds(), "1/s"),
		"p50_us":      p50,
		"setup_s":     summarize(setups, "s", len(setups)),
		"peak_rss_mb": exact(rss, "MiB"),
	}
	r.Notes = map[string]string{
		"advise_ms":       fmt.Sprintf("%.3f", p50.Value/1000),
		"optimizer_calls": fmt.Sprint(ar.ref.calls),
		"est_speedup":     fmt.Sprintf("%.6f", ar.ref.estSpeedup),
	}
	return r, nil
}

func (c *config) env() map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "-C", c.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	opt := c.options()
	return map[string]any{
		"commit":            commit,
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"nproc":             runtime.NumCPU(),
		"daemon_gomaxprocs": daemonGOMAXPROCS(),
		"seed":              c.seed,
		"run_seconds":       opt.run.Seconds(),
		"warm_seconds":      opt.warm.Seconds(),
		"windows":           nWindows,
		"setups_per_run":    opt.setups,
		"clients":           clients,
		"loop":              "closed",
		"tpox_scale":        tpoxScale,
		"traced":            c.trace,
		"cache_note":        "the whole store is in memory and the serve path has no literal-keyed cache, so 'larger than cache' does not apply",
	}
}

// daemonGOMAXPROCS is what the spawned daemons run with: they inherit
// the environment and otherwise default to the CPU count.
func daemonGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprint(runtime.NumCPU())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a result by name with its unit.
func printResult(name string, r *result) {
	fmt.Printf("== %s: attempted_ops %d, failed_ops %d", name, r.Attempted, r.Failed)
	if r.AckedLost != nil {
		fmt.Printf(", acked_lost %d", *r.AckedLost)
	}
	fmt.Println()
	if r.FirstFailure != "" {
		fmt.Printf("   first failure: %s\n", r.FirstFailure)
	}
	printMeasures(endToEnd, r.Metrics, false)
	printMeasures(perLayer, r.Layers, true)
	if len(r.LayerTable) > 0 {
		fmt.Printf("   %-28s %10s %14s %14s %8s\n", "layer span", "calls", "busy_us", "self_us", "share")
		for _, row := range r.LayerTable {
			fmt.Printf("   %-28s %10d %14.1f %14.1f %7.1f%%\n", row.Span, row.Calls, row.BusyUs, row.SelfUs, 100*row.Share)
		}
	}
	for _, line := range r.Catalog {
		fmt.Printf("   index: %s\n", line)
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %s: %s\n", k, r.Notes[k])
	}
}

// printMeasures prints the measures in definition order; skipZero
// leaves out the per-layer metrics a workload does not exercise.
func printMeasures(defs []metricDef, m map[string]measure, skipZero bool) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || (skipZero && v.Value == 0) {
			continue
		}
		fmt.Printf("   %-32s %14.4f %-6s (q1 %.4f, q3 %.4f, n %d)\n", d.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
}

// contractLine renders the driver's result object: every end-to-end
// metric with -trace 0, every per-layer metric with -trace 1.
func contractLine(r *result, traced bool) string {
	defs, from := endToEnd, r.Metrics
	if traced {
		defs, from = perLayer, r.Layers
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{from[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

package main

// layers.go holds every import of the program's packages: the output
// oracle, the in-process advise workload, and the traced pass that
// times calls into each layer's public functions. The end-to-end runs
// of the wire workloads depend only on xixad's flags and line
// protocol, so a refactor that renames a public function needs a
// change to this one file.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/optimizer"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// tpoxScale is the scale xixad generates by default; the daemons the
// harness spawns are started without -scale.
const tpoxScale = 1

// oracle answers "how many results must this statement return" by
// brute force over the same TPoX data the daemon generates.
type oracle struct {
	db   *storage.Database
	keys map[string]map[string]int64 // table|keyPath → value → documents
}

func newOracle() (*oracle, error) {
	db, err := tpox.NewDatabase(tpoxScale)
	if err != nil {
		return nil, err
	}
	return &oracle{db: db, keys: make(map[string]map[string]int64)}, nil
}

// countStatement evaluates the statement's normalized path (where
// conditions folded into predicates) on every document of its table
// and counts the bound nodes — no optimizer, no index, no engine.
func (o *oracle) countStatement(raw string) (int64, error) {
	stmt, err := xquery.Parse(raw)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	if stmt.Kind != xquery.Query {
		return 0, fmt.Errorf("oracle: not a query: %s", truncate(raw, 60))
	}
	tbl, err := o.db.Table(stmt.Table)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	path := stmt.NormalizedPath()
	var n int64
	tbl.Scan(func(doc *xmltree.Document) bool {
		n += int64(len(xpath.Eval(doc, path)))
		return true
	})
	return n, nil
}

// countKey counts the documents whose keyPath node has the string
// value key, from one pass over the table per (table, keyPath).
func (o *oracle) countKey(table, keyPath, key string) (int64, error) {
	id := table + "|" + keyPath
	vals, ok := o.keys[id]
	if !ok {
		tbl, err := o.db.Table(table)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		path, err := xpath.Parse(keyPath)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		vals = make(map[string]int64)
		tbl.Scan(func(doc *xmltree.Document) bool {
			for _, n := range xpath.Eval(doc, path) {
				vals[doc.TextOf(n)]++
			}
			return true
		})
		o.keys[id] = vals
	}
	return vals[key], nil
}

// The advise workload adds adviseSynthetic random path queries to the
// 11 TPoX queries and 4 update statements. They are drawn with one
// fixed generator seed, and the run's seed only permutes the statement
// order: which paths are drawn moves a round's cost by 12-15 % between
// seeds (the heuristic search is sensitive to a handful of queries),
// which alone would use up the regression bound, while the advisor's
// answer and cost do not depend on statement order.
const (
	adviseSynthetic     = 200
	adviseSyntheticSeed = 130
)

// adviseEnv is the advise workload's set-up: the database, its
// collected statistics (xstats.Collect per table) and the parsed
// training workload.
type adviseEnv struct {
	db  *storage.Database
	opt *optimizer.Optimizer
	w   *workload.Workload
}

func newAdviseEnv(seed int64) (*adviseEnv, error) {
	db, err := tpox.NewDatabase(tpoxScale)
	if err != nil {
		return nil, err
	}
	stmts := append([]string(nil), tpox.Queries()...)
	stmts = append(stmts, tpox.SyntheticQueries(db, adviseSynthetic, adviseSyntheticSeed)...)
	stmts = append(stmts, tpox.UpdateStatements()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		return nil, err
	}
	return &adviseEnv{db: db, opt: optimizer.New(db, optimizer.CollectStats(db)), w: w}, nil
}

// adviseRound is the outcome of one advisor round, reduced to what
// must repeat exactly: per algorithm the recommended definitions, and
// over the round the optimizer calls and the estimated speedup of the
// topdown-full recommendation.
type adviseRound struct {
	configs    map[string][]string
	calls      int64
	estSpeedup float64
}

func (a adviseRound) equal(b adviseRound) bool {
	return a.calls == b.calls && a.estSpeedup == b.estSpeedup && reflect.DeepEqual(a.configs, b.configs)
}

// round runs one advisor round: for each algorithm a fresh core.New
// (enumerate + generalize) then Recommend at half the All-Index size.
// span, when non-nil, wraps each public call for the traced pass.
func (e *adviseEnv) round(parallelism int, span func(name string, fn func())) (adviseRound, error) {
	if span == nil {
		span = func(_ string, fn func()) { fn() }
	}
	out := adviseRound{configs: make(map[string][]string)}
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	before := e.opt.EvaluateCalls()
	for _, algo := range core.Algorithms() {
		var adv *core.Advisor
		var rec *core.Recommendation
		var err error
		span("core.New", func() { adv, err = core.New(e.db, e.opt, e.w, opts) })
		if err != nil {
			return out, err
		}
		span("core.Recommend/"+algo, func() { rec, err = adv.Recommend(algo, adv.AllIndexSize()/2) })
		if err != nil {
			return out, err
		}
		defs := make([]string, 0, len(rec.Config))
		for _, d := range rec.Definitions() {
			defs = append(defs, d.String())
		}
		sort.Strings(defs)
		out.configs[algo] = defs
		if algo == core.AlgoTopDownFull {
			out.estSpeedup = adv.EstimatedSpeedup(rec.Config)
		}
	}
	out.calls = e.opt.EvaluateCalls() - before
	return out, nil
}

// adviseRun is the advise workload's measured run: closed-loop rounds
// at the default Parallelism for warm+run, each round checked against
// the reference (a Parallelism-1 and a Parallelism-2 round, which must
// agree with each other).
type adviseResult struct {
	roundUs           []float64 // measured rounds, in order
	elapsed           time.Duration
	attempted, failed int64
	ref               adviseRound
}

func runAdvise(env *adviseEnv, warm, run time.Duration) (*adviseResult, error) {
	res := &adviseResult{}
	serial, err := env.round(1, nil)
	if err != nil {
		return nil, err
	}
	two, err := env.round(2, nil)
	if err != nil {
		return nil, err
	}
	res.ref = serial
	res.attempted = 2
	if !serial.equal(two) {
		res.failed++
	}
	start := time.Now()
	var measureStart time.Time
	for {
		t0 := time.Now()
		if measureStart.IsZero() && t0.Sub(start) >= warm {
			measureStart = t0
		}
		if !measureStart.IsZero() && t0.Sub(measureStart) >= run {
			res.elapsed = t0.Sub(measureStart)
			break
		}
		got, err := env.round(0, nil)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !got.equal(res.ref) {
			res.failed++
		}
		if !measureStart.IsZero() {
			res.roundUs = append(res.roundUs, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return res, nil
}

// inproc is one workload's deployment shape built in this process the
// way xixad builds it, for the traced pass.
type inproc struct {
	srv     *server.Server // nil for a cluster
	cluster *shard.Cluster
	exec    func(raw string) (*server.Result, error)
	close   func()
}

// tpoxKeys are the partition keys xixad -shards uses.
func tpoxKeys() map[string]string {
	keys := make(map[string]string, len(keyTables))
	for _, kt := range keyTables {
		keys[kt.table] = kt.keyPath
	}
	return keys
}

func newInproc(wl *wireWorkload, dir string) (*inproc, error) {
	in := &inproc{}
	var tune func() error
	switch {
	case wl.shards > 1:
		c, err := shard.NewCluster(shard.Config{Shards: wl.shards, Keys: tpoxKeys()})
		if err != nil {
			return nil, err
		}
		sess, err := c.NewSession()
		if err != nil {
			c.Close()
			return nil, err
		}
		in.cluster, in.exec = c, sess.Execute
		in.close = func() { sess.Close(); c.Close() }
		if err := loadCluster(c, sess); err != nil {
			in.close()
			return nil, err
		}
		tune = func() error { _, err := c.TuneOnce(); return err }
	default:
		var srv *server.Server
		if wl.durable {
			var err error
			srv, _, err = server.Recover(server.Config{WALDir: dir, SyncPolicy: wal.SyncAlways},
				func() (*storage.Database, error) { return tpox.NewDatabase(tpoxScale) })
			if err != nil {
				return nil, err
			}
		} else {
			db, err := tpox.NewDatabase(tpoxScale)
			if err != nil {
				return nil, err
			}
			srv = server.New(db, server.Config{})
		}
		sess, err := srv.NewSession()
		if err != nil {
			srv.Close()
			return nil, err
		}
		in.srv, in.exec = srv, sess.Execute
		in.close = func() { sess.Close(); srv.Close() }
		tune = func() error { _, err := srv.TuneOnce(); return err }
	}
	if !wl.tuned {
		return in, nil
	}
	for _, q := range primeStatements() {
		if _, err := in.exec(q); err != nil {
			in.close()
			return nil, fmt.Errorf("prime: %w", err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := tune(); err != nil {
			in.close()
			return nil, fmt.Errorf("tune: %w", err)
		}
	}
	if in.srv != nil && len(in.srv.Catalog().Definitions()) < len(keyTables) {
		in.close()
		return nil, fmt.Errorf("tuning built %d indexes, want %d", len(in.srv.Catalog().Definitions()), len(keyTables))
	}
	return in, nil
}

// loadCluster replays a staging database through the cluster's router,
// as xixad -shards does, so documents land on their key's shard under
// the IDs an unsharded daemon would assign.
func loadCluster(c *shard.Cluster, sess *shard.Session) error {
	staging, err := tpox.NewDatabase(tpoxScale)
	if err != nil {
		return err
	}
	for _, name := range staging.TableNames() {
		if err := c.CreateTable(name); err != nil {
			return err
		}
		tbl, err := staging.Table(name)
		if err != nil {
			return err
		}
		var insErr error
		tbl.Scan(func(d *xmltree.Document) bool {
			_, insErr = sess.Execute("insert into " + name + " value " + xmltree.SerializeString(d))
			return insErr == nil
		})
		if insErr != nil {
			return fmt.Errorf("load %s: %w", name, insErr)
		}
	}
	return nil
}

// traceEvery makes the program's tracer sample every statement.
func (in *inproc) traceEvery() {
	if in.srv != nil {
		in.srv.SetTraceSampleEvery(1)
		return
	}
	for i := 0; i < in.cluster.Shards(); i++ {
		in.cluster.Shard(i).SetTraceSampleEvery(1)
	}
}

// tracedWire is the traced pass of a wire workload: the first n
// statements of st (client 0's seeded stream), single goroutine, through the
// deployment shape built in-process twice — once left as the daemon
// runs it (the untraced reference) and once with the program's tracer
// sampling every statement and a harness span around each public call.
// It returns the per-layer metrics it can take (the rest come from the
// wire run's counters), and how many statements it checked.
func tracedWire(wl *wireWorkload, st stream, n int, dir string, rec *recorder) (map[string]float64, int64, int64, error) {
	plain, err := newInproc(wl, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, 0, 0, err
	}
	defer plain.close()
	traced, err := newInproc(wl, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, 0, 0, err
	}
	defer traced.close()
	traced.traceEvery()

	// The decomposed replay needs an engine over the traced instance's
	// database, optimizer and catalog; a cluster is decomposed into its
	// per-shard legs instead.
	var eng *engine.Engine
	var legs []*server.Session
	if traced.srv != nil {
		eng = engine.New(traced.srv.DB(), traced.srv.Optimizer(), traced.srv.Catalog())
	} else {
		for i := 0; i < traced.cluster.Shards(); i++ {
			s, err := traced.cluster.Shard(i).NewSession()
			if err != nil {
				return nil, 0, 0, err
			}
			defer s.Close()
			legs = append(legs, s)
		}
	}

	var attempted, failed int64
	var plainUs, tracedUs, routerUs []float64
	var nodes, docs, results, entries, probes, stmtsSeen int64
	var outerNs, childNs int64
	callsBefore := int64(0)
	if plain.srv != nil {
		callsBefore = plain.srv.Optimizer().EvaluateCalls()
	}
	var mutations []*xquery.Statement
	seenPaths := map[string]bool{}
	var evalPaths []*xquery.Statement

	runPlain := func(raw string) (*server.Result, error) {
		t0 := time.Now()
		res, err := plain.exec(raw)
		plainUs = append(plainUs, float64(time.Since(t0))/float64(time.Microsecond))
		return res, err
	}
	// runTraced executes the statement on the traced instance under a
	// harness span, with the program's own phases (or, for a cluster,
	// the slowest replayed leg) as its children.
	runTraced := func(raw string) (*server.Result, time.Duration, error) {
		var res *server.Result
		var err error
		d := rec.do(spanStatement, func() { res, err = traced.exec(raw) })
		tracedUs = append(tracedUs, float64(d)/float64(time.Microsecond))
		if err != nil || traced.srv == nil {
			return res, d, err
		}
		outerNs += d.Nanoseconds()
		if last := traced.srv.Tracer().Last(1); len(last) == 1 && last[0].Statement == raw {
			names := make([]string, len(last[0].Spans))
			durs := make([]time.Duration, len(last[0].Spans))
			for j, sp := range last[0].Spans {
				names[j], durs[j] = "server/"+sp.Name, sp.Duration
				childNs += sp.Duration.Nanoseconds()
			}
			rec.phases(names, durs)
		}
		return res, d, nil
	}
	// replay times the public call of each layer the statement passes
	// through, after the real execution. Mutations are only parsed:
	// planning one again would refresh the live statistics it just
	// changed (work the serve path does not do), and executing one
	// again would apply it twice.
	replay := func(raw string, whole time.Duration) (*xquery.Statement, error) {
		var stmt *xquery.Statement
		var err error
		rec.do("xquery.Parse", func() { stmt, err = xquery.Parse(raw) })
		if err != nil || stmt.Kind != xquery.Query {
			return stmt, err
		}
		if traced.srv == nil {
			// Each shard's leg directly; the router's cost is the
			// cluster's time less the slowest leg.
			var slowest time.Duration
			for _, leg := range legs {
				d := rec.do("shard.leg", func() { _, err = leg.ExecuteStmt(stmt) })
				if err != nil {
					return stmt, err
				}
				if d > slowest {
					slowest = d
				}
			}
			routerUs = append(routerUs, float64(whole-slowest)/float64(time.Microsecond))
			outerNs += whole.Nanoseconds()
			childNs += slowest.Nanoseconds()
			return stmt, nil
		}
		cat := traced.srv.Catalog()
		var plan *optimizer.Plan
		rec.do("optimizer.EvaluateIndexes", func() {
			plan, err = traced.srv.Optimizer().EvaluateIndexes(stmt, cat.Definitions())
		})
		if err != nil {
			return stmt, err
		}
		for _, acc := range plan.Accesses {
			if idx, ok := cat.Get(acc.Index); ok {
				rec.do("xindex.Scan", func() {
					entries += int64(idx.Scan(acc.Site.Op, acc.Site.Lit, func(xindex.Ref) bool { return true }))
				})
				probes++
			}
		}
		rec.do("engine.ExecutePlan", func() { _, _, err = eng.ExecutePlan(plan) })
		return stmt, err
	}

	for i := 0; i < n; i++ {
		o := st.next()
		raw := o.stmt()
		attempted++
		rec.stmt = i
		// Alternate which instance goes first, so neither always runs
		// on the caches the other left.
		var resPlain, res *server.Result
		var errPlain, err error
		var whole time.Duration
		if i%2 == 0 {
			resPlain, errPlain = runPlain(raw)
			res, whole, err = runTraced(raw)
		} else {
			res, whole, err = runTraced(raw)
			resPlain, errPlain = runPlain(raw)
		}
		var stmt *xquery.Statement
		if err == nil {
			stmt, err = replay(raw, whole)
		}
		rec.stmt = -1
		if err != nil || errPlain != nil || int64(len(res.Refs)) != o.want || int64(len(resPlain.Refs)) != o.want {
			failed++
			continue
		}
		stmtsSeen++
		nodes += res.Stats.NodesScanned
		docs += res.Stats.DocsFetched
		results += int64(len(res.Refs))
		if stmt.Kind != xquery.Query {
			mutations = append(mutations, stmt)
		}
		if stmt.Kind != xquery.Insert && !seenPaths[raw] && len(evalPaths) < 64 {
			seenPaths[raw] = true
			evalPaths = append(evalPaths, stmt)
		}
	}

	out := map[string]float64{}
	out["server.exec_us"] = median(tracedUs)
	plainMed := median(plainUs)
	if plainMed > 0 {
		out["obs.trace_overhead_frac"] = (out["server.exec_us"] - plainMed) / plainMed
	}
	if outerNs > 0 {
		out["server.unattributed_frac"] = 1 - float64(childNs)/float64(outerNs)
	}
	out["xquery.parse_us"] = median(rec.durationsUs("xquery.Parse"))
	out["optimizer.plan_us"] = median(rec.durationsUs("optimizer.EvaluateIndexes"))
	out["xindex.probe_us"] = median(rec.durationsUs("xindex.Scan"))
	if len(mutations) > 0 {
		// Not replayed: the program's own phases stand in.
		out["optimizer.plan_us"] = median(rec.durationsUs("server/optimize"))
		out["xindex.probe_us"] = median(rec.durationsUs("server/index scan"))
	}
	if probes > 0 {
		out["xindex.entries_per_probe"] = float64(entries) / float64(probes)
	}
	if plain.srv != nil && stmtsSeen > 0 {
		out["optimizer.calls"] = float64(plain.srv.Optimizer().EvaluateCalls()-callsBefore) / float64(attempted)
	}
	out["shard.router_us"] = median(routerUs)
	switch {
	case traced.srv == nil:
		// A cluster's engine work is its slowest leg.
		out["engine.exec_us"] = median(rec.durationsUs("shard.leg"))
	case len(mutations) == 0:
		out["engine.exec_us"] = median(rec.durationsUs("engine.ExecutePlan"))
	default:
		// Mutations cannot be replayed through ExecutePlan without
		// applying them twice: their engine time is the program's own
		// match phases (everything but parse and commit).
		var us []float64
		for _, name := range []string{"server/optimize", "server/index scan", "server/xpath verify"} {
			us = append(us, rec.durationsUs(name)...)
		}
		if stmtsSeen > 0 {
			out["engine.exec_us"] = sum(us) / float64(stmtsSeen)
		}
	}
	per := results
	if per == 0 {
		per = stmtsSeen // a write stream returns no results: per statement
	}
	if per > 0 {
		out["engine.nodes_scanned_per_result"] = float64(nodes) / float64(per)
		out["engine.docs_fetched_per_result"] = float64(docs) / float64(per)
	}

	db := traced.db()
	out["xpath.eval_ns_per_doc"] = timeXPathEval(db, evalPaths, rec)
	if len(mutations) > 0 {
		out["xindex.maintain_us"] = timeIndexMaintenance(traced, mutations, rec)
		if out["storage.commit_us"], err = timeStorageCommit(mutations, rec); err != nil {
			return nil, 0, 0, err
		}
		if out["wal.append_sync_us"], err = timeWALAppend(filepath.Join(dir, "scratch.log"), mutations, db, rec); err != nil {
			return nil, 0, 0, err
		}
	}
	return out, attempted, failed, nil
}

// db returns a database holding the workload's documents: the server's,
// or for a cluster shard 0's (a quarter of them — per-document timings
// do not depend on which).
func (in *inproc) db() *storage.Database {
	if in.srv != nil {
		return in.srv.DB()
	}
	return in.cluster.Shard(0).DB()
}

// timeXPathEval times xpath.Eval of the workload's predicate paths over
// every document of their table and returns nanoseconds per document.
func timeXPathEval(db *storage.Database, stmts []*xquery.Statement, rec *recorder) float64 {
	var total time.Duration
	var evaluated int64
	for _, stmt := range stmts {
		tbl, err := db.Table(stmt.Table)
		if err != nil {
			continue
		}
		path := stmt.NormalizedPath()
		var docs []*xmltree.Document
		tbl.Scan(func(d *xmltree.Document) bool { docs = append(docs, d); return true })
		total += rec.do("xpath.Eval(table)", func() {
			for _, d := range docs {
				xpath.Eval(d, path)
			}
		})
		evaluated += int64(len(docs))
	}
	if evaluated == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(evaluated)
}

// timeIndexMaintenance times one entry insert plus delete on a scratch
// copy of each catalog index of the inserted documents' table, and
// returns the median microseconds per document over all such indexes.
func timeIndexMaintenance(in *inproc, mutations []*xquery.Statement, rec *recorder) float64 {
	if in.srv == nil {
		return 0
	}
	scratch := map[string]*xindex.Index{}
	for _, def := range in.srv.Catalog().Definitions() {
		tbl, err := in.srv.DB().Table(def.Table)
		if err != nil {
			continue
		}
		if idx, err := xindex.Build(tbl, def); err == nil {
			scratch[def.Key()] = idx
		}
	}
	for _, stmt := range mutations {
		if stmt.Kind != xquery.Insert {
			continue
		}
		for _, idx := range scratch {
			if idx.Def.Table != stmt.Table {
				continue
			}
			rec.do("xindex.OnInsert+OnDelete", func() {
				idx.OnInsert(stmt.Doc)
				idx.OnDelete(stmt.Doc)
			})
		}
	}
	return median(rec.durationsUs("xindex.OnInsert+OnDelete"))
}

// timeStorageCommit replays the write stream on a WAL-less, index-less
// database and times each transaction's commit (storage.CommitTx
// through engine.Txn.Commit with no log hook). It returns the median
// in microseconds.
func timeStorageCommit(mutations []*xquery.Statement, rec *recorder) (float64, error) {
	db, err := tpox.NewDatabase(tpoxScale)
	if err != nil {
		return 0, err
	}
	eng := engine.New(db, optimizer.NewLive(db), engine.NewCatalog())
	for _, stmt := range mutations {
		tx := eng.Begin()
		if _, _, err := tx.Execute(stmt); err != nil {
			tx.Rollback()
			return 0, fmt.Errorf("storage commit replay: %w", err)
		}
		var cerr error
		rec.do("storage.CommitTx", func() { _, cerr = tx.Commit(nil) })
		if cerr != nil {
			return 0, fmt.Errorf("storage commit replay: %w", cerr)
		}
	}
	return median(rec.durationsUs("storage.CommitTx")), nil
}

// timeWALAppend times AppendTxn plus Commit (the group-commit fsync
// wait) of each mutation's log record on a scratch log in the
// workload's WAL directory under the workload's flush policy. It
// returns the median in microseconds.
func timeWALAppend(path string, mutations []*xquery.Statement, db *storage.Database, rec *recorder) (float64, error) {
	l, _, err := wal.Open(path, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer l.Close()
	// An update logs the whole post-image; any SECURITY document has
	// the right size.
	var image *xmltree.Document
	if tbl, err := db.Table(tpox.TableSecurity); err == nil {
		tbl.Scan(func(d *xmltree.Document) bool { image = d; return false })
	}
	for i, stmt := range mutations {
		var payload []byte
		switch stmt.Kind {
		case xquery.Insert:
			payload, err = wal.EncodeDocInsert(stmt.Table, stmt.Doc, uint64(i+1))
		case xquery.Update:
			if image == nil {
				continue
			}
			payload, err = wal.EncodeDocReplace(stmt.Table, image, uint64(i+1))
		default:
			payload = wal.EncodeDocRemove(stmt.Table, int64(i), uint64(i+1))
		}
		if err != nil {
			return 0, err
		}
		var aerr error
		rec.do("wal.AppendTxn+Commit", func() {
			var lsn uint64
			if lsn, aerr = l.AppendTxn([][]byte{payload}); aerr == nil {
				aerr = l.Commit(lsn)
			}
		})
		if aerr != nil {
			return 0, aerr
		}
	}
	return median(rec.durationsUs("wal.AppendTxn+Commit")), nil
}

// tracedAdvise is the traced pass of the advise workload: rounds with a
// harness span around core.New and each Recommend, alternating with
// unspanned rounds for the overhead, plus timed xstats.Collect and a
// timed loop of EvaluateIndexes calls under the All-Index configuration.
func tracedAdvise(seed int64, rounds int, rec *recorder) (map[string]float64, int64, int64, error) {
	env, err := newAdviseEnv(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	var attempted, failed int64
	ref, err := env.round(1, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	var plainUs, tracedUs []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		got, err := env.round(0, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		plainUs = append(plainUs, float64(time.Since(t0))/float64(time.Microsecond))
		attempted++
		if !got.equal(ref) {
			failed++
		}
		rec.stmt = i
		d := rec.do(spanStatement, func() {
			got, err = env.round(0, func(name string, fn func()) { rec.do(name, fn) })
		})
		rec.stmt = -1
		if err != nil {
			return nil, 0, 0, err
		}
		tracedUs = append(tracedUs, float64(d)/float64(time.Microsecond))
		attempted++
		if !got.equal(ref) {
			failed++
		}
	}

	out := map[string]float64{
		"core.optimizer_calls": float64(ref.calls),
		"optimizer.calls":      float64(ref.calls),
		"core.est_speedup":     ref.estSpeedup,
	}
	med := median(tracedUs)
	out["core.advise_ms"] = med / 1000
	if plain := median(plainUs); plain > 0 {
		out["obs.trace_overhead_frac"] = (med - plain) / plain
	}
	// Per round: the five core.New calls, and the five Recommend calls.
	out["core.new_ms"] = sum(rec.durationsUs("core.New")) / float64(rounds) / 1000
	var recUs float64
	for _, algo := range core.Algorithms() {
		recUs += sum(rec.durationsUs("core.Recommend/" + algo))
	}
	out["core.recommend_ms"] = recUs / float64(rounds) / 1000

	var collect []float64
	for i := 0; i < 5; i++ {
		d := rec.do("xstats.Collect(all tables)", func() {
			for _, name := range env.db.TableNames() {
				if t, err := env.db.Table(name); err == nil {
					xstats.Collect(t)
				}
			}
		})
		collect = append(collect, float64(d)/float64(time.Millisecond))
	}
	out["xstats.collect_ms"] = median(collect)

	adv, err := core.New(env.db, env.opt, env.w, core.DefaultOptions())
	if err != nil {
		return nil, 0, 0, err
	}
	var all []xindex.Definition
	for _, c := range adv.AllIndexConfig() {
		all = append(all, c.Def)
	}
	calls := 0
	d := rec.do("optimizer.EvaluateIndexes(workload, all-index)", func() {
		for rep := 0; rep < 20; rep++ {
			for _, item := range env.w.Items {
				if _, err := env.opt.EvaluateIndexes(item.Stmt, all); err == nil {
					calls++
				}
			}
		}
	})
	if calls > 0 {
		out["optimizer.evaluate_us"] = float64(d) / float64(time.Microsecond) / float64(calls)
	}
	return out, attempted, failed, nil
}

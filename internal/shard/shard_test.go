package shard

import (
	"fmt"
	"testing"

	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xindex"
	"xixa/internal/xmark"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

var securityKeys = map[string]string{"SECURITY": "/Security/Symbol"}

func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		Keys:   securityKeys,
		Server: server.Config{BuildAfter: 1, DropAfter: 1},
	}
}

func newTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := NewCluster(testConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("SECURITY"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func insertSec(symbol, sector string, yield int) string {
	return fmt.Sprintf(`insert into SECURITY value <Security><Symbol>%s</Symbol><Yield>%d</Yield><SecInfo><StockInformation><Sector>%s</Sector></StockInformation></SecInfo></Security>`,
		symbol, yield, sector)
}

func pointQuery(symbol string) string {
	return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "%s" return $s`, symbol)
}

func sectorQuery(sector string) string {
	return fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/SecInfo/StockInformation/Sector = "%s" return $s`, sector)
}

var sectors = []string{"Energy", "Tech", "Finance", "Retail"}

func mustExec(t *testing.T, s *Session, raw string) *server.Result {
	t.Helper()
	res, err := s.Execute(raw)
	if err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	return res
}

// TestRoutingPinsKeyedStatements exercises the router's pin detection:
// key-equality statements go to exactly one shard, everything else
// scatters, and detection is conservative around wildcards.
func TestRoutingPinsKeyedStatements(t *testing.T) {
	c := newTestCluster(t, 4)

	pin := func(raw string) (int, bool) {
		return c.pinnedShard(xquery.MustParse(raw))
	}

	if _, ok := pin(pointQuery("SYM1")); !ok {
		t.Error("key-equality point query did not pin")
	}
	if s1, _ := pin(pointQuery("SYM1")); true {
		if s2, _ := pin(pointQuery("SYM1")); s1 != s2 {
			t.Error("pinning is not deterministic")
		}
	}
	if _, ok := pin(sectorQuery("Tech")); ok {
		t.Error("non-key query pinned")
	}
	if _, ok := pin(`for $s in SECURITY('SDOC')/Security where $s/Yield = 3 return $s`); ok {
		t.Error("numeric-equality query pinned (only string equality is hashable)")
	}
	if _, ok := pin(`delete from SECURITY where /Security[Symbol="SYM1"]`); !ok {
		t.Error("key-equality delete did not pin")
	}
	if _, ok := pin(`update SECURITY set Yield = 9 where /Security[Symbol="SYM1"]`); !ok {
		t.Error("key-equality update did not pin")
	}
	if _, ok := pin(`delete from SECURITY where /Security[Yield="3"]`); ok {
		t.Error("non-key delete pinned")
	}

	// The same key value must pin queries to the shard inserts chose.
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 32; i++ {
		sym := fmt.Sprintf("SYM%03d", i)
		mustExec(t, sess, insertSec(sym, sectors[i%4], i%9))
		shard, ok := pin(pointQuery(sym))
		if !ok {
			t.Fatalf("%s: no pin", sym)
		}
		res := mustExec(t, sess, pointQuery(sym))
		if len(res.Refs) != 1 {
			t.Fatalf("%s: %d refs from pinned shard %d", sym, len(res.Refs), shard)
		}
	}
}

// TestScatterOnlyLatch: a document with no key node permanently
// degrades the table to scatter — and queries still see everything.
func TestScatterOnlyLatch(t *testing.T) {
	c := newTestCluster(t, 3)
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for i := 0; i < 12; i++ {
		mustExec(t, sess, insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	if c.route("SECURITY").scatterOnly.Load() {
		t.Fatal("scatterOnly latched on keyed documents")
	}
	// A keyless document: the symbol no longer identifies one shard.
	mustExec(t, sess, `insert into SECURITY value <Security><Name>anon</Name></Security>`)
	if !c.route("SECURITY").scatterOnly.Load() {
		t.Fatal("scatterOnly did not latch on a keyless document")
	}
	if _, ok := c.pinnedShard(xquery.MustParse(pointQuery("SYM001"))); ok {
		t.Fatal("pin succeeded after scatter-only latch")
	}
	res := mustExec(t, sess, pointQuery("SYM001"))
	if len(res.Refs) != 1 {
		t.Fatalf("post-latch query refs = %d, want 1", len(res.Refs))
	}
}

// TestUpdateRewritingPartitionKey: an update can retarget the
// partition-key leaf itself (engine.runUpdate applies SetPath under
// Match), leaving the document placed by its old key value. The router
// must latch scatter-only before dispatch, or statements pinning the
// new value would route to the wrong shard and silently miss the
// document — a wrong answer an unsharded engine never produces.
func TestUpdateRewritingPartitionKey(t *testing.T) {
	c := newTestCluster(t, 4)
	rt := c.route("SECURITY")
	may := func(raw string) bool { return rt.updateMayTargetKey(xquery.MustParse(raw)) }
	if may(`update SECURITY set Yield = 9 where /Security[Symbol="SYM001"]`) {
		t.Error("non-key update flagged as key-targeting")
	}
	if !may(`update SECURITY set Symbol = "NEW" where /Security[Symbol="SYM001"]`) {
		t.Error("key-leaf update not flagged")
	}
	if !may(`update SECURITY set * = "NEW" where /Security[Yield="3"]`) {
		t.Error("wildcard set path can resolve to the key; not flagged")
	}

	// End to end against the unsharded oracle, crossing the rewrite.
	plain := server.New(fixtureDatabase(), server.Config{BuildAfter: 1, DropAfter: 1})
	defer plain.Close()
	psess, err := plain.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer psess.Close()
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	step := func(raw string) {
		t.Helper()
		pres, perr := psess.Execute(raw)
		cres, cerr := sess.Execute(raw)
		if perr != nil || cerr != nil {
			t.Fatalf("%s: unsharded err %v, cluster err %v", raw, perr, cerr)
		}
		if refsKey(cres.Refs) != refsKey(pres.Refs) {
			t.Fatalf("%s: cluster %s, unsharded %s", raw, refsKey(cres.Refs), refsKey(pres.Refs))
		}
	}
	for i := 0; i < 16; i++ {
		step(insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	step(`update SECURITY set Yield = 9 where /Security[Symbol="SYM003"]`)
	if rt.scatterOnly.Load() {
		t.Fatal("non-key update latched scatter-only")
	}
	step(`update SECURITY set Symbol = "RENAMED" where /Security[Symbol="SYM005"]`)
	if !rt.scatterOnly.Load() {
		t.Fatal("key-rewriting update did not latch scatter-only")
	}
	if res := mustExec(t, sess, pointQuery("RENAMED")); len(res.Refs) != 1 {
		t.Fatalf("query by rewritten key value found %d refs, want 1", len(res.Refs))
	}
	step(pointQuery("RENAMED"))
	step(pointQuery("SYM005"))
	step(`delete from SECURITY where /Security[Symbol="RENAMED"]`)
	step(pointQuery("RENAMED"))
	step(sectorQuery("Tech"))
}

// TestWhitespacePaddedKeyPlacement: engine equality compares
// TrimSpace'd node text against the literal, so placement must hash
// the trimmed key value — a pretty-printed <Symbol> PAD007 </Symbol>
// has to land on the shard that [Symbol="PAD007"] pins to.
func TestWhitespacePaddedKeyPlacement(t *testing.T) {
	c := newTestCluster(t, 4)
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 16; i++ {
		sym := fmt.Sprintf("PAD%03d", i)
		mustExec(t, sess, fmt.Sprintf(
			`insert into SECURITY value <Security><Symbol> %s </Symbol><Yield>%d</Yield></Security>`, sym, i))
		if res := mustExec(t, sess, pointQuery(sym)); len(res.Refs) != 1 {
			t.Fatalf("%s: pinned query found %d refs for padded key, want 1", sym, len(res.Refs))
		}
	}
	mustExec(t, sess, `delete from SECURITY where /Security[Symbol="PAD007"]`)
	if res := mustExec(t, sess, pointQuery("PAD007")); len(res.Refs) != 0 {
		t.Fatal("pinned delete missed the padded-key document")
	}
}

// TestCreateTableRollback: a cluster create that fails on shard k must
// not leave shards 0..k-1 holding the table — that residue would make
// every retry die on shard 0's "already exists" while the route never
// registers, leaving the table permanently uncreatable.
func TestCreateTableRollback(t *testing.T) {
	c, err := NewCluster(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Escape-hatch residue: shard 2 already holds the table.
	c.dbs[2].MustCreateTable("SECURITY")
	if err := c.CreateTable("SECURITY"); err == nil {
		t.Fatal("create succeeded despite a shard-local conflict")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.dbs[i].Table("SECURITY"); err == nil {
			t.Fatalf("shard %d kept the table after a failed create", i)
		}
	}
	// Clearing the conflict makes the retry succeed end to end.
	if err := c.dbs[2].DropTable("SECURITY"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("SECURITY"); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	sess, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mustExec(t, sess, insertSec("SYM001", "Tech", 3))
	if res := mustExec(t, sess, pointQuery("SYM001")); len(res.Refs) != 1 {
		t.Fatalf("post-retry query refs = %d, want 1", len(res.Refs))
	}
}

// streamScript is a deterministic mixed statement stream: loads, point
// queries, scans, deletes, updates, then more queries. Every statement
// kind crosses the router at least once.
func streamScript(docs int) []string {
	var out []string
	for i := 0; i < docs; i++ {
		out = append(out, insertSec(fmt.Sprintf("SYM%03d", i), sectors[i%4], i%9))
	}
	for i := 0; i < docs; i += 3 {
		out = append(out, pointQuery(fmt.Sprintf("SYM%03d", i)))
	}
	for _, s := range sectors {
		out = append(out, sectorQuery(s))
	}
	out = append(out,
		`delete from SECURITY where /Security[Symbol="SYM004"]`,
		fmt.Sprintf(`delete from SECURITY where /Security[SecInfo/StockInformation/Sector="%s"]`, "Retail"),
		`update SECURITY set Yield = 42 where /Security[Symbol="SYM006"]`,
		`update SECURITY set Yield = 7 where /Security[Yield="3"]`,
	)
	for i := 0; i < docs; i += 2 {
		out = append(out, pointQuery(fmt.Sprintf("SYM%03d", i)))
	}
	for _, s := range sectors {
		out = append(out, sectorQuery(s))
	}
	// Re-insert after deletes: IDs must continue from the same global
	// sequence an unsharded table would use.
	for i := 0; i < 6; i++ {
		out = append(out, insertSec(fmt.Sprintf("NEW%03d", i), sectors[i%4], i))
	}
	out = append(out, sectorQuery("Tech"), pointQuery("NEW003"))
	return out
}

func refsKey(refs []xindex.Ref) string {
	var b []byte
	for _, r := range refs {
		b = fmt.Appendf(b, "%d:%d,", r.Doc, r.Node)
	}
	return string(b)
}

// tuneMark in a stream marks where each runner runs one tuning round.
const tuneMark = `\tune`

// tpoxXMarkStream is the multi-table stream: a TPoX + XMark load at a
// tenth of scale 1 as inserts (TPoX tables keyed by tpox.PartitionKeys,
// XMARK unkeyed, so its queries always scatter), three query rounds with a
// tuning round between each, and a DML burst of keyed and unkeyed
// updates, deletes and re-inserts before the second tuning round.
func tpoxXMarkStream(t *testing.T) []string {
	t.Helper()
	tcfg := tpox.DefaultConfig(1)
	tcfg.Securities, tcfg.Orders, tcfg.Customers = tcfg.Securities/10, tcfg.Orders/10, tcfg.Customers/10
	xcfg := xmark.DefaultConfig(1)
	xcfg.Items, xcfg.People, xcfg.Auction = xcfg.Items/10, xcfg.People/10, xcfg.Auction/10
	staging := storage.NewDatabase()
	if err := tpox.Generate(staging, tcfg); err != nil {
		t.Fatal(err)
	}
	if err := xmark.Generate(staging, xcfg); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range []string{tpox.TableSecurity, tpox.TableOrders, tpox.TableCustAcc, xmark.Table} {
		tbl, err := staging.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Scan(func(d *xmltree.Document) bool {
			out = append(out, fmt.Sprintf("insert into %s value %s", name, xmltree.SerializeString(d)))
			return true
		})
	}

	queryRound := func() {
		out = append(out, tpox.Queries()...)
		out = append(out, xmark.Queries()...)
		for i := 0; i < 20; i++ {
			out = append(out, pointQuery(tpox.SymbolOf(i*13%tcfg.Securities)))
		}
	}
	queryRound()
	out = append(out, tuneMark)
	queryRound()
	out = append(out,
		fmt.Sprintf(`update SECURITY set Yield = 9.75 where /Security[Symbol="%s"]`, tpox.SymbolOf(7)),
		`update SECURITY set Yield = 1.25 where /Security[SecInfo/StockInformation/Sector="Energy"]`,
		fmt.Sprintf(`delete from SECURITY where /Security[Symbol="%s"]`, tpox.SymbolOf(11)),
		`delete from ORDERS where /Order[Status="cancelled"]`,
	)
	for i := 0; i < 8; i++ {
		out = append(out, insertSec(fmt.Sprintf("SRD%03d", i), "Sharded", i%10))
	}
	out = append(out, tuneMark)
	queryRound()
	return out
}

// TestClusterMatchesUnshardedBitIdentical is the subsystem's core
// guarantee: the same statement stream through an unsharded server,
// a one-shard cluster, and a multi-shard cluster yields bit-identical
// results — document IDs, node IDs, and output ordering included —
// with tuning rounds mid-stream. Two streams: the SECURITY-only script,
// and the multi-table TPoX + XMark stream.
func TestClusterMatchesUnshardedBitIdentical(t *testing.T) {
	security := streamScript(45)
	// Tune after statement 60.
	security = append(security[:61:61], append([]string{tuneMark}, security[61:]...)...)

	for _, in := range []struct {
		name   string
		keys   map[string]string
		tables []string
		shards int
		script []string
	}{
		{"security", securityKeys, []string{"SECURITY"}, 3, security},
		{"tpox+xmark", tpox.PartitionKeys(),
			[]string{tpox.TableSecurity, tpox.TableOrders, tpox.TableCustAcc, xmark.Table}, 4, tpoxXMarkStream(t)},
	} {
		t.Run(in.name, func(t *testing.T) {
			var stmts []string
			for _, raw := range in.script {
				if raw != tuneMark {
					stmts = append(stmts, raw)
				}
			}
			scfg := server.Config{BuildAfter: 1, DropAfter: 1}

			type runner struct {
				name string
				exec func(string) (*server.Result, error)
				tune func() error
			}
			var runs []runner
			var multi *Cluster // the in.shards-way cluster

			db := storage.NewDatabase()
			for _, name := range in.tables {
				db.MustCreateTable(name)
			}
			plain := server.New(db, scfg)
			defer plain.Close()
			psess, err := plain.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer psess.Close()
			runs = append(runs, runner{"unsharded", psess.Execute, func() error {
				_, err := plain.TuneOnce()
				return err
			}})

			for _, n := range []int{1, in.shards} {
				c, err := NewCluster(Config{Shards: n, Keys: in.keys, Server: scfg})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				multi = c
				for _, name := range in.tables {
					if err := c.CreateTable(name); err != nil {
						t.Fatal(err)
					}
				}
				sess, err := c.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				runs = append(runs, runner{fmt.Sprintf("cluster-%d", n), sess.Execute, func() error {
					_, err := c.TuneOnce()
					return err
				}})
			}

			outputs := make([][]string, len(runs))
			for ri, r := range runs {
				for _, raw := range in.script {
					if raw == tuneMark {
						if err := r.tune(); err != nil {
							t.Fatalf("%s tune: %v", r.name, err)
						}
						continue
					}
					res, err := r.exec(raw)
					if err != nil {
						t.Fatalf("%s stmt %d (%s): %v", r.name, len(outputs[ri]), raw, err)
					}
					outputs[ri] = append(outputs[ri], refsKey(res.Refs))
				}
			}
			for ri := 1; ri < len(runs); ri++ {
				for si := range stmts {
					if outputs[ri][si] != outputs[0][si] {
						t.Fatalf("%s diverged from unsharded at stmt %d (%s):\n got %s\nwant %s",
							runs[ri].name, si, stmts[si], outputs[ri][si], outputs[0][si])
					}
				}
			}
			// The multi-shard run crossed every router path: pinned,
			// scatter-gathered, and broadcast.
			vals := obs.Values(multi.Metrics().Snapshot())
			for _, m := range []string{"xixa_router_local_total", "xixa_router_fanout_total", "xixa_router_broadcast_total"} {
				if vals[m] == 0 {
					t.Errorf("cluster-%d: %s = 0", in.shards, m)
				}
			}
		})
	}
}

// fixtureDatabase is the unsharded oracle's empty database (the
// cluster creates its tables through CreateTable; the oracle needs
// the same table pre-created).
func fixtureDatabase() *storage.Database {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	return db
}

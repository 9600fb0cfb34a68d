package experiments

import (
	"fmt"
	"io"
	"time"

	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmark"
	"xixa/internal/xmltree"
)

// ShardedRunnerRow is one runner's traffic summary in the sharded-serve
// scenario.
type ShardedRunnerRow struct {
	Name       string
	Shards     int     // 0 = unsharded oracle
	Statements int     // statements executed
	ElapsedMS  float64 // wall-clock of the full stream
	Local      float64 // statements the router pinned to one shard
	Fanout     float64 // queries scatter-gathered across all shards
	Broadcast  float64 // mutations broadcast to all shards
	Indexes    int     // catalog size after tuning (max across shards)
}

// ShardedServeResult is the sharded-serve scenario's outcome.
type ShardedServeResult struct {
	Statements int
	Rows       []ShardedRunnerRow
	Identical  bool // every runner produced bit-identical results
}

// shardedStream builds the deterministic statement stream: the full
// TPoX + XMark corpus as inserts (in staging-generation order), three
// query rounds with a tuning round between each, and a DML burst of
// keyed and unkeyed updates, deletes, and re-inserts. "tune" entries
// mark where each runner runs one advisor round.
func shardedStream(scale int) ([]string, error) {
	staging := storage.NewDatabase()
	if err := tpox.Generate(staging, tpox.Config{
		Securities: 240 * scale, Orders: 300 * scale, Customers: 120 * scale, Seed: 1914,
	}); err != nil {
		return nil, err
	}
	if err := xmark.Generate(staging, xmark.Config{
		Items: 150 * scale, People: 100 * scale, Auction: 50 * scale, Seed: 2001,
	}); err != nil {
		return nil, err
	}
	var out []string
	for _, name := range []string{tpox.TableSecurity, tpox.TableOrders, tpox.TableCustAcc, xmark.Table} {
		tbl, err := staging.Table(name)
		if err != nil {
			return nil, err
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
			out = append(out, fmt.Sprintf(
				`for $s in SECURITY('SDOC')/Security where $s/Symbol = "%s" return $s`, tpox.SymbolOf(i*13%240)))
		}
	}
	queryRound()
	out = append(out, "\\tune")
	queryRound()
	out = append(out,
		fmt.Sprintf(`update SECURITY set Yield = 9.75 where /Security[Symbol="%s"]`, tpox.SymbolOf(7)),
		`update SECURITY set Yield = 1.25 where /Security[SecInfo/StockInformation/Sector="Energy"]`,
		fmt.Sprintf(`delete from SECURITY where /Security[Symbol="%s"]`, tpox.SymbolOf(11)),
		`delete from ORDERS where /Order[Status="cancelled"]`,
	)
	for i := 0; i < 8; i++ {
		out = append(out, fmt.Sprintf(
			`insert into SECURITY value <Security><Symbol>SRD%03d</Symbol><Yield>%d.5</Yield><SecInfo><StockInformation><Sector>Sharded</Sector></StockInformation></SecInfo></Security>`, i, i%10))
	}
	out = append(out, "\\tune")
	queryRound()
	return out, nil
}

// ShardedServe replays one deterministic TPoX+XMark statement stream —
// loads, three query rounds, tuning rounds, and a DML burst — through
// an unsharded server and through clusters of 1 and `shards` shards,
// then verifies the three runs produced bit-identical results:
// document IDs, node IDs, and output ordering included. The cluster's
// global document-ID allocation and document-ID-ordered gather merge
// are exactly what make this hold; the printed routing counters show
// how much of the stream the key-hash router kept single-shard.
func ShardedServe(w io.Writer, scale, shards int) (*ShardedServeResult, error) {
	stream, err := shardedStream(scale)
	if err != nil {
		return nil, err
	}

	type runner struct {
		row  ShardedRunnerRow
		exec func(string) (*server.Result, error)
		tune func() error
		vals func() map[string]float64
		idx  func() int
	}
	scfg := server.Config{BuildAfter: 1, DropAfter: 2}
	var runners []*runner

	db := storage.NewDatabase()
	for name := range tpox.PartitionKeys() {
		db.MustCreateTable(name)
	}
	db.MustCreateTable(xmark.Table)
	plain := server.New(db, scfg)
	defer plain.Close()
	psess, err := plain.NewSession()
	if err != nil {
		return nil, err
	}
	defer psess.Close()
	runners = append(runners, &runner{
		row:  ShardedRunnerRow{Name: "unsharded", Shards: 0},
		exec: psess.Execute,
		tune: func() error { _, err := plain.TuneOnce(); return err },
		vals: func() map[string]float64 { return nil },
		idx:  func() int { return len(plain.Catalog().Definitions()) },
	})

	for _, n := range []int{1, shards} {
		// The TPoX tables route by their natural document identifiers;
		// XMARK stays unkeyed — its heterogeneous roots exercise the pure
		// scatter-gather path.
		c, err := shard.NewCluster(shard.Config{Shards: n, Keys: tpox.PartitionKeys(), Server: scfg})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		for name := range tpox.PartitionKeys() {
			if err := c.CreateTable(name); err != nil {
				return nil, err
			}
		}
		if err := c.CreateTable(xmark.Table); err != nil {
			return nil, err
		}
		sess, err := c.NewSession()
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		runners = append(runners, &runner{
			row:  ShardedRunnerRow{Name: fmt.Sprintf("cluster-%d", n), Shards: n},
			exec: sess.Execute,
			tune: func() error { _, err := c.TuneOnce(); return err },
			vals: func() map[string]float64 { return obs.Values(c.Metrics().Snapshot()) },
			idx: func() int {
				max := 0
				for i := 0; i < c.Shards(); i++ {
					if n := len(c.Shard(i).Catalog().Definitions()); n > max {
						max = n
					}
				}
				return max
			},
		})
	}

	fmt.Fprintf(w, "Sharded serve (scale %d): one statement stream through an unsharded server and %d-way sharding\n", scale, shards)
	outputs := make([][]string, len(runners))
	for ri, r := range runners {
		start := time.Now()
		for si, raw := range stream {
			if raw == "\\tune" {
				if err := r.tune(); err != nil {
					return nil, fmt.Errorf("%s tune: %w", r.row.Name, err)
				}
				continue
			}
			res, err := r.exec(raw)
			if err != nil {
				return nil, fmt.Errorf("%s stmt %d (%s): %w", r.row.Name, si, raw, err)
			}
			var sig []byte
			for _, ref := range res.Refs {
				sig = fmt.Appendf(sig, "%d:%d,", ref.Doc, ref.Node)
			}
			outputs[ri] = append(outputs[ri], string(sig))
			r.row.Statements++
		}
		r.row.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		if vals := r.vals(); vals != nil {
			r.row.Local = vals["xixa_router_local_total"]
			r.row.Fanout = vals["xixa_router_fanout_total"]
			r.row.Broadcast = vals["xixa_router_broadcast_total"]
		}
		r.row.Indexes = r.idx()
	}

	res := &ShardedServeResult{Statements: len(outputs[0]), Identical: true}
	for ri := 1; ri < len(runners); ri++ {
		for si := range outputs[0] {
			if outputs[ri][si] != outputs[0][si] {
				res.Identical = false
				fmt.Fprintf(w, "DIVERGED: %s at statement %d\n got %s\nwant %s\n",
					runners[ri].row.Name, si, outputs[ri][si], outputs[0][si])
			}
		}
	}

	fmt.Fprintf(w, "%-11s %7s %11s %11s %8s %8s %10s %8s\n",
		"runner", "shards", "statements", "elapsed-ms", "local", "fanout", "broadcast", "indexes")
	for _, r := range runners {
		fmt.Fprintf(w, "%-11s %7d %11d %11.1f %8.0f %8.0f %10.0f %8d\n",
			r.row.Name, r.row.Shards, r.row.Statements, r.row.ElapsedMS,
			r.row.Local, r.row.Fanout, r.row.Broadcast, r.row.Indexes)
		res.Rows = append(res.Rows, r.row)
	}
	if !res.Identical {
		return res, fmt.Errorf("sharded results diverged from the unsharded oracle")
	}
	fmt.Fprintf(w, "all runners bit-identical across %d statements (IDs and ordering included).\n", res.Statements)
	return res, nil
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// UpdateStreamRow is one sampled round of the sustained update+query
// stream experiment.
type UpdateStreamRow struct {
	Round     int
	Docs      int     // SECURITY documents at end of round
	Mutations int     // inserts + updates + deletes executed this round
	Queries   int     // query executions this round
	WorkUnits float64 // engine work units across the round's statements
	// RefreshMS is the cost of bringing the live statistics current
	// after the round's mutation batch — the incremental ApplyDelta
	// path, proportional to the batch.
	RefreshMS float64
	// CollectMS is what a full RUNSTATS re-pass of the table costs, for
	// reference: the price every re-advise paid before statistics became
	// incrementally maintained.
	CollectMS float64
	// AdviseMS is a full re-advise (enumerate + generalize + search) on
	// the live optimizer, statistics refresh included.
	AdviseMS float64
	Indexes  int // recommended indexes after the round
}

// updateStreamMix sizes one round of the TPoX-style transaction mix.
const (
	updateStreamInserts = 40
	updateStreamUpdates = 20
	updateStreamDeletes = 20
)

func streamSymbol(round, i int) string { return fmt.Sprintf("SYMUPD%03d%03d", round, i) }

func streamInsert(round, i int) string {
	return fmt.Sprintf(`insert into SECURITY value <Security id="9%03d%03d"><Symbol>%s</Symbol><Name>Streamed Holdings %d</Name><SecurityType>Stock</SecurityType><Yield>%.2f</Yield><PE>%.2f</PE><SecInfo><StockInformation><Sector>Technology</Sector><Industry>Software</Industry><MarketCap>%d</MarketCap></StockInformation></SecInfo></Security>`,
		round, i, streamSymbol(round, i), i,
		float64((round*7+i*13)%1000)/100,
		5+float64((round*11+i*3)%4000)/100,
		(1+(round+i)%500)*100000000)
}

func streamUpdate(round, i int) string {
	return fmt.Sprintf(`update SECURITY set Yield = %.2f where /Security[Symbol="%s"]`,
		float64((round*31+i*17)%1000)/100, streamSymbol(round, i))
}

func streamDelete(round, i int) string {
	return fmt.Sprintf(`delete from SECURITY where /Security[Symbol="%s"]`, streamSymbol(round, i))
}

// UpdateStream runs the sustained update+query throughput scenario: a
// live engine executes the TPoX query set interleaved with a TPoX-style
// transaction mix (new listings, price/yield updates, delistings)
// against the SECURITY table, with the advisor's recommended indexes
// materialized and maintained. The optimizer's statistics are kept
// current incrementally from the change stream, so the per-round
// re-advise never re-scans the table; the printed refresh-vs-RUNSTATS
// columns show the gap that motivates the incremental path.
func UpdateStream(w io.Writer, scale, parallelism, rounds int) ([]UpdateStreamRow, error) {
	db, err := tpox.NewDatabase(scale)
	if err != nil {
		return nil, err
	}
	opt := optimizer.NewLive(db)
	cat := engine.NewCatalog()
	eng := engine.New(db, opt, cat)
	tbl, err := db.Table(tpox.TableSecurity)
	if err != nil {
		return nil, err
	}

	queries := make([]*xquery.Statement, 0, len(tpox.Queries()))
	for _, q := range tpox.Queries() {
		stmt, err := xquery.Parse(q)
		if err != nil {
			return nil, err
		}
		queries = append(queries, stmt)
	}
	wl, err := workload.ParseStatements(tpox.Queries())
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism

	// Materialize the recommendation online, so the stream pays real
	// index maintenance like a tuned production system would and its
	// deletes and updates can probe the indexes from inside their
	// transactions (only feed-maintained indexes serve a snapshot).
	mgr := xindex.NewManager(db, cat, nil)
	materialize := func(defs []xindex.Definition) error {
		_, _, err := mgr.Reconcile(optimizer.DiffConfigs(cat.Definitions(), defs))
		return err
	}
	adv, err := core.New(db, opt, wl, opts)
	if err != nil {
		return nil, err
	}
	rec, err := adv.Recommend(core.AlgoTopDownFull, adv.AllIndexSize())
	if err != nil {
		return nil, err
	}
	if err := materialize(rec.Definitions()); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Sustained update+query stream (scale %d, SECURITY table, live statistics)\n", scale)
	fmt.Fprintf(w, "per round: %d inserts, %d updates, %d deletes, %d interleaved queries; re-advise each round\n",
		updateStreamInserts, updateStreamUpdates, updateStreamDeletes,
		(updateStreamInserts+7)/8)
	fmt.Fprintf(w, "%5s %7s %9s %12s %12s %12s %12s %8s\n",
		"round", "docs", "mutations", "work-units", "refresh-ms", "runstats-ms", "advise-ms", "indexes")

	var rows []UpdateStreamRow
	exec := func(raw string, row *UpdateStreamRow) error {
		stmt, err := xquery.Parse(raw)
		if err != nil {
			return err
		}
		_, st, err := eng.Execute(stmt)
		if err != nil {
			return err
		}
		row.Mutations++
		row.WorkUnits += st.WorkUnits()
		return nil
	}
	for round := 1; round <= rounds; round++ {
		row := UpdateStreamRow{Round: round}
		for i := 0; i < updateStreamInserts; i++ {
			if err := exec(streamInsert(round, i), &row); err != nil {
				return rows, err
			}
			// Interleave queries so plans are chosen mid-stream, against
			// statistics that already include this round's inserts.
			if i%8 == 0 {
				q := queries[(round*7+i)%len(queries)]
				_, st, err := eng.Execute(q)
				if err != nil {
					return rows, err
				}
				row.Queries++
				row.WorkUnits += st.WorkUnits()
			}
		}
		for i := 0; i < updateStreamUpdates; i++ {
			if err := exec(streamUpdate(round, i), &row); err != nil {
				return rows, err
			}
		}
		for i := 0; i < updateStreamDeletes; i++ {
			if err := exec(streamDelete(round, i), &row); err != nil {
				return rows, err
			}
		}

		// Statistics refresh after the batch: incremental vs full.
		start := time.Now()
		if _, err := opt.TableStats(tpox.TableSecurity); err != nil {
			return rows, err
		}
		row.RefreshMS = float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		xstats.Collect(tbl)
		row.CollectMS = float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		adv, err := core.New(db, opt, wl, opts)
		if err != nil {
			return rows, err
		}
		rec, err := adv.Recommend(core.AlgoTopDownFull, adv.AllIndexSize())
		if err != nil {
			return rows, err
		}
		row.AdviseMS = float64(time.Since(start).Microseconds()) / 1000
		row.Indexes = len(rec.Config)
		if err := materialize(rec.Definitions()); err != nil {
			return rows, err
		}

		row.Docs = tbl.DocCount()
		rows = append(rows, row)
		fmt.Fprintf(w, "%5d %7d %9d %12.0f %12.2f %12.2f %12.2f %8d\n",
			row.Round, row.Docs, row.Mutations, row.WorkUnits,
			row.RefreshMS, row.CollectMS, row.AdviseMS, row.Indexes)
	}
	fmt.Fprintf(w, "refresh-ms tracks the batch size (O(changed docs)); runstats-ms tracks the table.\n")
	return rows, nil
}

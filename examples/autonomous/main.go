// Autonomous tuning: an online loop in the spirit of the paper's
// related work [19] (Hammerschmidt et al.), built from this library's
// pieces — a workload.Capture observes the executed statements, and the
// advisor periodically re-tunes, reconciling the catalog toward its
// recommendation through the online index manager. The workload shifts
// halfway through; watch the configuration follow it.
//
//	go run ./examples/autonomous
package main

import (
	"fmt"
	"log"

	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/optimizer"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
)

func main() {
	fmt.Println("Generating TPoX database (scale 1)...")
	db, err := tpox.NewDatabase(1)
	if err != nil {
		log.Fatal(err)
	}
	// Live statistics: the online loop keeps executing statements while
	// the advisor periodically re-tunes, so the optimizer maintains its
	// statistics incrementally instead of freezing them at startup.
	opt := optimizer.NewLive(db)
	cat := engine.NewCatalog()
	eng := engine.New(db, opt, cat)
	mgr := xindex.NewManager(db, cat, nil)

	// Two workload phases: symbol lookups first, then sector/yield
	// screens.
	phase1 := []string{
		`for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00042" return $s`,
		`for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00777" return $s`,
	}
	phase2 := []string{
		`for $s in SECURITY('SDOC')/Security[Yield>7.5] where $s/SecInfo/*/Sector = "Energy" return $s`,
		`for $s in SECURITY('SDOC')/Security where $s//Industry = "Software" return $s`,
	}

	retune := func(seen *workload.Capture, budgetFactor int64) {
		w := seen.Workload()
		if w.Len() == 0 {
			return
		}
		adv, err := core.New(db, opt, w, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		recm, err := adv.Recommend(core.AlgoTopDownFull, adv.AllIndexSize()*budgetFactor)
		if err != nil {
			log.Fatal(err)
		}
		built, dropped, err := mgr.Reconcile(optimizer.DiffConfigs(cat.Definitions(), recm.Definitions()))
		if err != nil {
			log.Fatal(err)
		}
		for _, def := range dropped {
			fmt.Printf("    DROP   %s\n", def)
		}
		for _, def := range built {
			fmt.Printf("    CREATE %s\n", def)
		}
	}

	runPhase := func(name string, queries []string, rounds int) {
		seen := workload.NewCapture(0)
		var work float64
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				stmt := xquery.MustParse(q)
				_, st, err := eng.Execute(stmt)
				if err != nil {
					log.Fatal(err)
				}
				seen.Observe(stmt, 1)
				work += st.WorkUnits()
			}
			if r == rounds/2 {
				fmt.Printf("  [%s] mid-phase retune after observing %d statements:\n", name, seen.Len())
				retune(seen, 1)
			}
		}
		fmt.Printf("  [%s] total work: %.0f units, %d indexes in catalog\n\n",
			name, work, len(cat.Definitions()))
	}

	fmt.Println("\nPhase 1: symbol point lookups")
	runPhase("phase1", phase1, 6)
	fmt.Println("Phase 2: workload shifts to sector/yield screens")
	runPhase("phase2", phase2, 6)
	fmt.Println("The catalog followed the workload: symbol indexes were dropped")
	fmt.Println("once the capture stopped seeing symbol lookups.")
}

// Quickstart: load a few XML documents, ask the advisor for indexes,
// materialize them, and watch the same query run faster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xixa/internal/core"
	"xixa/internal/engine"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
)

func main() {
	// 1. A database with one XML table holding Security documents.
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	for i := 0; i < 5000; i++ {
		doc := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("SYM%05d", i)).
			LeafFloat("Yield", float64(i%100)/10).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", []string{"Energy", "Tech", "Finance"}[i%3]).
			End().End().
			End().Document()
		tbl.Insert(doc)
	}

	// 2. Statistics (RUNSTATS) and the optimizer.
	stats := optimizer.CollectStats(db)
	opt := optimizer.New(db, stats)

	// 3. The training workload: the paper's running examples.
	w, err := workload.ParseStatements([]string{
		`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM00042" return $sec`,
		`for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. The advisor: enumerate candidates via the optimizer's
	// Enumerate Indexes mode, generalize, search.
	adv, err := core.New(db, opt, w, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Candidates (basic, from the optimizer):")
	for _, c := range adv.Candidates.Basic() {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("Candidates (generalized):")
	for _, c := range adv.Candidates.Generalized() {
		fmt.Printf("  %s\n", c)
	}

	rec, err := adv.Recommend(core.AlgoTopDownFull, adv.AllIndexSize())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRecommended configuration (%d bytes, est. speedup %.1fx):\n",
		rec.TotalSize, adv.EstimatedSpeedup(rec.Config))
	for _, c := range rec.Config {
		fmt.Printf("  %s\n", c)
	}

	// 5. Prove it: run the workload without and with the indexes.
	run := func(cat *engine.Catalog) float64 {
		eng := engine.New(db, opt, cat)
		var items []engine.WorkloadItem
		for _, it := range w.Items {
			items = append(items, engine.WorkloadItem{Stmt: it.Stmt, Freq: it.Freq})
		}
		st, err := eng.RunWorkload(items)
		if err != nil {
			log.Fatal(err)
		}
		return st.WorkUnits()
	}
	before := run(engine.NewCatalog())
	cat := engine.NewCatalog()
	for _, def := range rec.Definitions() {
		idx, err := xindex.BuildOnline(tbl, def)
		if err != nil {
			log.Fatal(err)
		}
		cat.Add(idx)
	}
	after := run(cat)
	fmt.Printf("\nActual work units: %.0f without indexes, %.0f with (%.1fx speedup)\n",
		before, after, before/after)
}

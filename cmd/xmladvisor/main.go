// Command xmladvisor is the CLI of the XML Index Advisor: it loads XML
// documents into tables, reads a workload file, and recommends the best
// index configuration under a disk budget.
//
// Usage:
//
//	xmladvisor -load TABLE=dir [-load TABLE=dir ...] -workload file \
//	           [-budget bytes] [-algo name] [-verbose]
//
//	xmladvisor -tpox 1 -workload file ...   (generate TPoX data instead)
//	xmladvisor -db snap.xdb -workload file  (load a saved image)
//
// -savedb writes the database and the recommended index definitions as
// a checkpoint image (internal/wal) at log position 0; -db reads one,
// or a durable daemon's checkpoint, and rebuilds its indexes.
//
// The workload file holds one statement per line, optionally prefixed
// with "freq|"; see internal/workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xixa/internal/core"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
)

type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "TABLE=directory of .xml files to load (repeatable)")
	tpoxScale := flag.Int("tpox", 0, "generate TPoX data at this scale instead of -load")
	dbPath := flag.String("db", "", "load a database image (a -savedb file or a daemon checkpoint) instead of -load/-tpox")
	saveDB := flag.String("savedb", "", "write the database + recommended index definitions to this image file")
	workloadPath := flag.String("workload", "", "workload file (required)")
	budget := flag.Int64("budget", 0, "disk budget in bytes (default: All-Index size)")
	algo := flag.String("algo", core.AlgoTopDownFull,
		fmt.Sprintf("search algorithm %v", core.Algorithms()))
	verbose := flag.Bool("verbose", false, "print candidates and search details")
	flag.Parse()

	if *workloadPath == "" {
		fatal(fmt.Errorf("-workload is required"))
	}
	db := storage.NewDatabase()
	switch {
	case *dbPath != "":
		loaded, defs, _, _, err := wal.LoadCheckpointFile(*dbPath)
		if err != nil {
			fatal(err)
		}
		db = loaded
		if len(defs) > 0 {
			// Rebuild the image's materialized catalog (definitions
			// persist, contents rebuild on load) so the report shows
			// the configuration the DBA already has, with real sizes,
			// next to what the advisor recommends.
			idxs, err := rebuildIndexes(db, defs)
			if err != nil {
				fatal(err)
			}
			var total int64
			for _, idx := range idxs {
				total += idx.SizeBytes()
			}
			fmt.Printf("Image carries %d materialized indexes (%d bytes rebuilt):\n", len(idxs), total)
			for _, idx := range idxs {
				fmt.Printf("  %s  (%d entries, %d bytes)\n", idx.Def, idx.Entries(), idx.SizeBytes())
			}
		}
	case *tpoxScale > 0:
		if err := tpox.Generate(db, tpox.DefaultConfig(*tpoxScale)); err != nil {
			fatal(err)
		}
	case len(loads) > 0:
		for _, spec := range loads {
			if err := loadTable(db, spec); err != nil {
				fatal(err)
			}
		}
	default:
		fatal(fmt.Errorf("provide -load TABLE=dir or -tpox N"))
	}

	f, err := os.Open(*workloadPath)
	if err != nil {
		fatal(err)
	}
	w, err := workload.ParseFile(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Println("Collecting statistics (RUNSTATS)...")
	stats := optimizer.CollectStats(db)
	opt := optimizer.New(db, stats)
	adv, err := core.New(db, opt, w, core.DefaultOptions())
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Workload: %d unique statements\n", w.Len())
	fmt.Printf("Candidates: %d basic (optimizer-enumerated), %d after generalization\n",
		len(adv.Candidates.Basic()), len(adv.Candidates.All))
	if *verbose {
		for _, c := range adv.Candidates.All {
			fmt.Printf("  %s\n", c)
		}
	}
	allSize := adv.AllIndexSize()
	fmt.Printf("All-Index configuration size: %d bytes\n", allSize)
	b := *budget
	if b <= 0 {
		b = allSize
	}
	rec, err := adv.Recommend(*algo, b)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nRecommendation (%s, budget %d bytes):\n", rec.Algorithm, rec.Budget)
	sorted := append([]*core.Candidate(nil), rec.Config...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SizeBytes > sorted[j].SizeBytes })
	for _, c := range sorted {
		fmt.Printf("  CREATE INDEX ON %s(XMLDATA) GENERATE KEY USING XMLPATTERN '%s' AS %s\n",
			c.Def.Table, c.Def.Pattern, sqlType(c))
	}
	fmt.Printf("\n  indexes: %d (%d general, %d specific)\n",
		len(rec.Config), rec.GeneralCount(), rec.SpecificCount())
	fmt.Printf("  total size: %d bytes (budget %d)\n", rec.TotalSize, rec.Budget)
	fmt.Printf("  estimated benefit: %.0f timerons\n", rec.Benefit)
	fmt.Printf("  estimated workload speedup: %.1fx\n", adv.EstimatedSpeedup(rec.Config))
	fmt.Printf("  optimizer calls: %d, advisor time: %s\n", rec.OptimizerCalls, rec.Elapsed)
	if *saveDB != "" {
		if err := wal.SaveCheckpointFile(*saveDB, db, rec.Definitions(), 0, 0); err != nil {
			fatal(err)
		}
		fmt.Printf("  image written to %s\n", *saveDB)
	}
}

// rebuildIndexes builds the indexes defs name over db, in order; a
// definition whose table is missing fails.
func rebuildIndexes(db *storage.Database, defs []xindex.Definition) ([]*xindex.Index, error) {
	out := make([]*xindex.Index, 0, len(defs))
	for _, def := range defs {
		tbl, err := db.Table(def.Table)
		if err != nil {
			return nil, fmt.Errorf("rebuilding %s: %w", def, err)
		}
		idx, err := xindex.Build(tbl, def)
		if err != nil {
			return nil, fmt.Errorf("rebuilding %s: %w", def, err)
		}
		out = append(out, idx)
	}
	return out, nil
}

func sqlType(c *core.Candidate) string {
	if c.Def.Type.String() == "numerical" {
		return "SQL DOUBLE"
	}
	return "SQL VARCHAR(64)"
}

func loadTable(db *storage.Database, spec string) error {
	eq := strings.Index(spec, "=")
	if eq <= 0 {
		return fmt.Errorf("bad -load %q, want TABLE=dir", spec)
	}
	table, dir := spec[:eq], spec[eq+1:]
	if _, err := db.CreateTable(table); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var docs []*xmltree.Document
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		docs = append(docs, doc)
	}
	if _, err := db.Load(table, docs...); err != nil {
		return err
	}
	fmt.Printf("Loaded %d documents into %s\n", len(docs), table)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmladvisor:", err)
	os.Exit(1)
}

// Command xqshell is a shell over a generated TPoX database: type
// workload statements and see plans, results, and work counters — with
// or without the advisor's recommended indexes. It is the xixad daemon's
// front end (internal/frontend) on stdin and stdout instead of a
// socket: the same commands, the same "| ..." / "OK ..." / "ERR ..."
// replies, the same serving layer underneath, so every executed
// statement lands in the workload capture ring and one \tune away from
// materialized indexes (hysteresis is 1 here, so \tune acts at once).
//
// Usage:
//
//	xqshell [-scale N] [-autoindex]
//
// With -autoindex, the shell first runs the advisor on the 11-query
// TPoX workload and materializes the recommended indexes (online), so
// \explain shows index plans immediately.
//
// Shell commands: a statement (query/insert/delete/update) executes;
// \explain <statement>, \tune, \indexes, \stats [json], \metrics and
// \quit are the daemon's (see internal/frontend).
package main

import (
	"flag"
	"fmt"
	"os"

	"xixa/internal/frontend"
	"xixa/internal/server"
	"xixa/internal/tpox"
	"xixa/internal/workload"
)

func main() {
	scale := flag.Int("scale", 1, "TPoX scale factor")
	autoindex := flag.Bool("autoindex", false, "run the advisor and materialize its recommendation before the prompt")
	flag.Parse()

	fmt.Printf("Generating TPoX data (scale %d)...\n", *scale)
	db, err := tpox.NewDatabase(*scale)
	if err != nil {
		fatal(err)
	}
	// The serving layer brings live statistics (plans track the shell's
	// inserts/deletes/updates), workload capture, and online index
	// builds; hysteresis 1 so \tune acts immediately.
	srv := server.New(db, server.Config{BuildAfter: 1, DropAfter: 1})
	defer srv.Close()

	if *autoindex {
		w, err := workload.ParseStatements(tpox.Queries())
		if err != nil {
			fatal(err)
		}
		for _, it := range w.Items {
			srv.Capture().Observe(it.Stmt, float64(it.Freq))
		}
		rep, err := srv.TuneOnce()
		if err != nil {
			fatal(err)
		}
		for _, def := range rep.Built {
			fmt.Printf("created index %s\n", def)
		}
	}

	fmt.Println(`Ready. Try:  for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00042" return $s`)
	frontend.New(srv).ServeConn(os.Stdin, os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqshell:", err)
	os.Exit(1)
}

// Command experiments regenerates the paper's tables and figures
// (and this repository's ablations) against the Go substrate.
//
// Usage:
//
//	experiments [-scale N] [-run name[,name...]]
//
// -run takes the step names listed by experiments -h, or all (the
// default).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xixa/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "TPoX data scale factor (1 = 1000 securities, 2000 orders, 500 customers)")

	out := os.Stdout
	var env *experiments.Env
	type step struct {
		name     string
		needsEnv bool // runs on env, the shared generated TPoX database
		run      func() error
	}
	steps := []step{
		{"table1", true, func() error { _, err := experiments.TableI(out, env); return err }},
		{"fig2", true, func() error { _, err := experiments.Fig2(out, env); return err }},
		{"fig3", true, func() error { _, err := experiments.Fig3(out, env); return err }},
		{"table3", true, func() error { _, err := experiments.Table3(out, env); return err }},
		{"table4", true, func() error { _, err := experiments.Table4(out, env); return err }},
		{"fig4", true, func() error { _, err := experiments.Fig4(out, env); return err }},
		{"fig5", true, func() error {
			_, err := experiments.Fig5(out, env, []int{1, 3, 5, 8, 10, 12, 15, 18, 20})
			return err
		}},
		{"ablation-calls", true, func() error { _, err := experiments.AblationCalls(out, env); return err }},
		{"ablation-beta", true, func() error { _, err := experiments.AblationBeta(out, env); return err }},
		{"updates", true, func() error { _, err := experiments.Updates(out, env); return err }},
		{"observe", false, func() error { _, err := experiments.Observe(out, *scale); return err }},
		{"xmark", false, func() error { _, err := experiments.XMark(out, *scale); return err }},
	}
	names := make([]string, 0, len(steps)+1)
	for _, s := range steps {
		names = append(names, s.name)
	}
	run := flag.String("run", "all", "comma-separated experiment names ("+strings.Join(append(names, "all"), ",")+")")
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var selected []step
	needEnv := false
	for _, s := range steps {
		if want["all"] || want[s.name] {
			selected = append(selected, s)
			needEnv = needEnv || s.needsEnv
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("no experiment matched -run=%s", *run))
	}

	if needEnv {
		fmt.Fprintf(out, "Generating TPoX data (scale %d) and collecting statistics...\n\n", *scale)
		e, err := experiments.NewEnv(*scale)
		if err != nil {
			fatal(err)
		}
		env = e
	}
	for _, s := range selected {
		if err := s.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		fmt.Fprintln(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

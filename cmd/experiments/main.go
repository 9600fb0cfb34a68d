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
	"io"
	"os"
	"strings"

	"xixa/internal/experiments"
)

// step is one experiment. Steps that need env share one generated
// TPoX database at the run's scale; the others generate their own.
type step struct {
	name     string
	needsEnv bool
	run      func(out io.Writer, env *experiments.Env, scale int) (any, error)
}

var steps = []step{
	{"table1", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.TableI(o, e) }},
	{"fig2", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Fig2(o, e) }},
	{"fig3", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Fig3(o, e) }},
	{"table3", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Table3(o, e) }},
	{"table4", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Table4(o, e) }},
	{"fig4", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Fig4(o, e) }},
	{"fig5", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) {
		return experiments.Fig5(o, e, []int{1, 3, 5, 8, 10, 12, 15, 18, 20})
	}},
	{"ablation-calls", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.AblationCalls(o, e) }},
	{"ablation-beta", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.AblationBeta(o, e) }},
	{"updates", true, func(o io.Writer, e *experiments.Env, _ int) (any, error) { return experiments.Updates(o, e) }},
	{"observe", false, func(o io.Writer, _ *experiments.Env, scale int) (any, error) { return experiments.Observe(o, scale) }},
	{"xmark", false, func(o io.Writer, _ *experiments.Env, scale int) (any, error) { return experiments.XMark(o, scale) }},
}

func main() {
	scale := flag.Int("scale", 1, "TPoX data scale factor (1 = 1000 securities, 2000 orders, 500 customers)")
	names := make([]string, 0, len(steps)+1)
	for _, s := range steps {
		names = append(names, s.name)
	}
	run := flag.String("run", "all", "comma-separated experiment names ("+strings.Join(append(names, "all"), ",")+")")
	flag.Parse()
	if err := runSteps(os.Stdout, *scale, strings.Split(*run, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runSteps runs the named steps ("all" names every one) in table order
// at the given scale, writing their output to out.
func runSteps(out io.Writer, scale int, run []string) error {
	want := map[string]bool{}
	for _, name := range run {
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
		return fmt.Errorf("no experiment matched -run=%s", strings.Join(run, ","))
	}

	var env *experiments.Env
	if needEnv {
		fmt.Fprintf(out, "Generating TPoX data (scale %d) and collecting statistics...\n\n", scale)
		e, err := experiments.NewEnv(scale)
		if err != nil {
			return err
		}
		env = e
	}
	for _, s := range selected {
		if _, err := s.run(out, env, scale); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// Package workload models the training and test workloads presented to
// the advisor: a list of unique statements each with an occurrence
// frequency (paper §III: "The benefit of each unique statement in the
// workload is multiplied by its frequency of occurrence").
package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xixa/internal/xquery"
)

// Item is one unique statement and its frequency.
type Item struct {
	Stmt *xquery.Statement
	Freq int
}

// Workload is an ordered list of workload items.
type Workload struct {
	Items []Item
}

// New builds a workload from statements, all with frequency 1.
func New(stmts ...*xquery.Statement) *Workload {
	w := &Workload{}
	for _, s := range stmts {
		w.Add(s, 1)
	}
	return w
}

// Add appends a statement with a frequency. Adding the same statement
// text again accumulates frequency instead of duplicating the item.
func (w *Workload) Add(s *xquery.Statement, freq int) {
	if freq <= 0 {
		freq = 1
	}
	for i := range w.Items {
		if w.Items[i].Stmt.Raw == s.Raw {
			w.Items[i].Freq += freq
			return
		}
	}
	w.Items = append(w.Items, Item{Stmt: s, Freq: freq})
}

// Len returns the number of unique statements.
func (w *Workload) Len() int { return len(w.Items) }

// Prefix returns a new workload holding the first n items (the paper's
// "train on n queries" experiments, Fig. 4/5).
func (w *Workload) Prefix(n int) *Workload {
	if n > len(w.Items) {
		n = len(w.Items)
	}
	out := &Workload{Items: make([]Item, n)}
	copy(out.Items, w.Items[:n])
	return out
}

// ParseFile reads a workload file: one statement per line, optionally
// prefixed with "<freq>|". Blank lines and lines starting with '#' are
// skipped. Example:
//
//	# two hot queries and a trickle of inserts
//	10| for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s
//	 1| insert into SECURITY value <Security><Symbol>Z</Symbol></Security>
func ParseFile(r io.Reader) (*Workload, error) {
	w := &Workload{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		freq := 1
		if bar := strings.Index(line, "|"); bar > 0 {
			if f, err := strconv.Atoi(strings.TrimSpace(line[:bar])); err == nil {
				freq = f
				line = strings.TrimSpace(line[bar+1:])
			}
		}
		stmt, err := xquery.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		w.Add(stmt, freq)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return w, nil
}

// ParseStatements parses a slice of statement strings, frequency 1 each.
func ParseStatements(stmts []string) (*Workload, error) {
	w := &Workload{}
	for i, s := range stmts {
		stmt, err := xquery.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i+1, err)
		}
		w.Add(stmt, 1)
	}
	return w, nil
}

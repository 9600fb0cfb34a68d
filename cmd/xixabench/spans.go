package main

import (
	"sort"
	"time"
)

// span is one timed call the traced pass made into a layer's public
// function, or one phase the program's own tracer reported inside such
// a call. Times are nanoseconds since the pass began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Stmt   int    `json:"stmt"`   // statement (or advisor round) number, -1 outside one
}

// recorder keeps the traced pass's spans in memory; they are written
// out when the pass ends. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	stmt  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), stmt: -1} }

// do times fn as a span named name under the innermost open span and
// returns its duration.
func (r *recorder) do(name string, fn func()) time.Duration {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Stmt: r.stmt})
	r.open = append(r.open, i)
	start := time.Now()
	fn()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Start = start.Sub(r.t0).Nanoseconds()
	r.spans[i].End = end.Sub(r.t0).Nanoseconds()
	return end.Sub(start)
}

// phases files the program's own trace phases (which carry a duration
// but no start) as consecutive children of the span recorded last.
func (r *recorder) phases(names []string, durations []time.Duration) {
	parent := len(r.spans) - 1
	at := r.spans[parent].Start
	for i, name := range names {
		d := durations[i].Nanoseconds()
		r.spans = append(r.spans, span{Name: name, Start: at, End: at + d, Parent: parent, Stmt: r.spans[parent].Stmt})
		at += d
	}
}

// spanStatement names the span around one whole operation: a statement
// executed on the traced instance, or one advisor round.
const spanStatement = "statement"

// layerRow is one line of the per-layer table: a span name with its
// call count, busy time, self time (busy minus the time its child
// spans cover) and self time as a share of all statement time. The
// replayed public calls are siblings of the statement span, not its
// children, so their shares say how much of the real statement such a
// call accounts for; spans outside any statement have no share.
type layerRow struct {
	Span   string  `json:"span"`
	Calls  int64   `json:"calls"`
	BusyUs float64 `json:"busy_us"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

func (r *recorder) table() []layerRow {
	children := make([]int64, len(r.spans))
	var statementBusy int64
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
		if s.Name == spanStatement {
			statementBusy += s.End - s.Start
		}
	}
	inStatement := map[string]bool{}
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range r.spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Span: s.Name}
			byName[s.Name] = row
			order = append(order, s.Name)
		}
		if s.Stmt >= 0 {
			inStatement[s.Name] = true
		}
		busy := s.End - s.Start
		row.Calls++
		row.BusyUs += float64(busy) / 1e3
		row.SelfUs += float64(busy-children[i]) / 1e3
	}
	sort.Strings(order)
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		row := *byName[name]
		if statementBusy > 0 && inStatement[name] {
			row.Share = row.SelfUs * 1e3 / float64(statementBusy)
		}
		rows = append(rows, row)
	}
	return rows
}

// durationsUs returns the durations, in microseconds, of every span
// with the given name.
func (r *recorder) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

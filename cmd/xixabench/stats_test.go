package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {10, 10}, {1, 10}, {100, 100}, {99.9, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{7})
	if q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v, want 7 7 7", q1, med, q3)
	}
}

func TestWindows(t *testing.T) {
	w := newWindows(2, time.Second)
	// Window 0: latencies 100..400 µs; window 1: one of 1000 µs.
	for i, lat := range []int{100, 200, 300, 400} {
		if !w.add(time.Duration(i)*200*time.Millisecond, time.Duration(lat)*time.Microsecond) {
			t.Fatalf("add %d refused inside the run", i)
		}
	}
	if !w.add(1500*time.Millisecond, time.Millisecond) {
		t.Fatal("add in window 1 refused")
	}
	if w.add(2*time.Second, time.Millisecond) {
		t.Error("a completion at the run's end must fall outside the last window")
	}
	if w.add(-time.Millisecond, time.Millisecond) {
		t.Error("a completion before the run must be refused")
	}
	other := newWindows(2, time.Second)
	other.add(1700*time.Millisecond, 3*time.Millisecond)
	w.merge(other)

	total, minWin := w.samples()
	if total != 6 || minWin != 2 {
		t.Errorf("samples = %d total, %d min; want 6, 2", total, minWin)
	}
	rate, pct := w.perWindow(50, 100)
	if rate[0] != 4 || rate[1] != 2 {
		t.Errorf("rates = %v, want [4 2]", rate)
	}
	if pct[0][0] != 200 || pct[0][1] != 1000 || pct[1][0] != 400 || pct[1][1] != 3000 {
		t.Errorf("percentiles = %v, want p50 [200 1000], p100 [400 3000]", pct)
	}
	m := summarize(rate, "1/s", total)
	if m.Value != 3 || m.Q1 != 2.5 || m.Q3 != 3.5 || m.N != 6 {
		t.Errorf("summarize = %+v", m)
	}
	if all := w.all(); len(all) != 6 || all[0] != 100 || all[5] != 3000 {
		t.Errorf("all = %v", all)
	}
}

func TestSpansSelfTimeAndShare(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: spanStatement, Start: 0, End: 100, Parent: -1, Stmt: 0},
		{Name: "server/parse", Start: 0, End: 30, Parent: 0, Stmt: 0},
		{Name: "server/commit", Start: 30, End: 70, Parent: 0, Stmt: 0},
		{Name: "xquery.Parse", Start: 100, End: 125, Parent: -1, Stmt: 0},
		{Name: "micro", Start: 200, End: 1200, Parent: -1, Stmt: -1},
	}}
	rows := map[string]layerRow{}
	for _, row := range r.table() {
		rows[row.Span] = row
	}
	if got := rows[spanStatement]; got.SelfUs != 0.03 || got.BusyUs != 0.1 || got.Share != 0.3 {
		t.Errorf("statement row = %+v, want self 30ns of 100ns", got)
	}
	if got := rows["xquery.Parse"]; got.Share != 0.25 {
		t.Errorf("a replayed call's share is of the statement's time: %+v", got)
	}
	if got := rows["micro"]; got.Share != 0 || got.Calls != 1 {
		t.Errorf("a span outside any statement has no share: %+v", got)
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample by the nearest-rank rule: the smallest value
// with at least p percent of the sample at or below it. An empty
// sample has percentile 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quartiles returns the median and the first and third quartile of a
// sample (any order), interpolating linearly between closest ranks —
// the "inclusive" method, so a one-value sample has q1 = q3 = median.
func quartiles(vals []float64) (q1, med, q3 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// median returns the median of a sample, 0 when empty.
func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// measure is one reported number: a median with the quartiles and the
// sample count it rests on.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports the median of vals with its quartiles; n is the
// number of raw samples behind vals (per-window values rest on many).
func summarize(vals []float64, unit string, n int) measure {
	q1, med, q3 := quartiles(vals)
	return measure{Value: med, Unit: unit, Q1: q1, Q3: q3, N: n}
}

// exact reports a single observation with no spread.
func exact(v float64, unit string) measure {
	return measure{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// windows collects per-operation latencies into fixed consecutive
// windows of one measured run. One noisy burst spoils one window, not
// the run: every timing metric is the median of the per-window values.
type windows struct {
	width time.Duration
	lat   [][]float64 // per window: latencies in microseconds
}

func newWindows(n int, width time.Duration) *windows {
	return &windows{width: width, lat: make([][]float64, n)}
}

// add files one completed operation under the window its completion
// time (measured from the run's start) falls in. It reports false once
// the run is over.
func (w *windows) add(done, latency time.Duration) bool {
	if done < 0 {
		return false
	}
	i := int(done / w.width)
	if i >= len(w.lat) {
		return false
	}
	w.lat[i] = append(w.lat[i], float64(latency)/float64(time.Microsecond))
	return true
}

// merge folds another client's windows of the same run into w.
func (w *windows) merge(o *windows) {
	for i := range w.lat {
		w.lat[i] = append(w.lat[i], o.lat[i]...)
	}
}

// samples returns the total and the smallest per-window sample count.
func (w *windows) samples() (total, minWindow int) {
	minWindow = math.MaxInt
	for _, l := range w.lat {
		total += len(l)
		if len(l) < minWindow {
			minWindow = len(l)
		}
	}
	return total, minWindow
}

// perWindow returns each window's completions per second and latency
// percentiles (µs) for the requested ps.
func (w *windows) perWindow(ps ...float64) (rate []float64, pct [][]float64) {
	pct = make([][]float64, len(ps))
	for _, l := range w.lat {
		s := append([]float64(nil), l...)
		sort.Float64s(s)
		rate = append(rate, float64(len(s))/w.width.Seconds())
		for j, p := range ps {
			pct[j] = append(pct[j], percentile(s, p))
		}
	}
	return rate, pct
}

// all returns every latency of the run, sorted ascending.
func (w *windows) all() []float64 {
	var s []float64
	for _, l := range w.lat {
		s = append(s, l...)
	}
	sort.Float64s(s)
	return s
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. All methods are safe on
// a nil receiver — uninstrumented layers carry nil handles and each
// call costs one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the current value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ExpBuckets returns n upper bounds starting at start, each factor
// times the previous — the fixed exponential bucket layouts every
// histogram in the tree uses (e.g. ExpBuckets(1e-6, 2, 20) spans 1µs
// to ~0.5s for latencies).
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets requires n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// histStripes is the number of independently locked shards per
// histogram. Eight is enough that concurrent committers on the WAL
// fsync path do not convoy on one mutex.
const histStripes = 8

type histStripe struct {
	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
	// pad the stripe out to its own cache line so neighboring stripes
	// don't false-share.
	_ [24]byte
}

// Histogram counts observations into fixed buckets. Observations land
// on one of histStripes shards picked round-robin; Snapshot merges
// them. Nil-safe like Counter.
type Histogram struct {
	bounds  []float64
	next    atomic.Uint32 // round-robin stripe selector
	stripes [histStripes]histStripe
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	for i := range h.stripes {
		h.stripes[i].counts = make([]uint64, len(bounds)+1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the overflow bucket is
	// len(bounds). Inlined (vs sort.SearchFloat64s) to keep the hot
	// path free of interface calls.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s := &h.stripes[h.next.Add(1)%histStripes]
	s.mu.Lock()
	s.counts[lo]++
	s.sum += v
	s.count++
	s.mu.Unlock()
}

// HistogramSnapshot is a merged, point-in-time view of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot merges the stripes into one view.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	if h == nil {
		return &HistogramSnapshot{}
	}
	snap := &HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for j, c := range s.counts {
			snap.Counts[j] += c
		}
		snap.Sum += s.sum
		snap.Count += s.count
		s.mu.Unlock()
	}
	return snap
}

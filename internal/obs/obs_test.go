package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestRegistryIdempotentAndDeterministic(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("xixa_txn_commits_total")
	b := r.Counter("xixa_txn_commits_total")
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	r.Counter("xixa_wal_appends_total")
	r.Gauge("xixa_sessions_open")
	r.Counter("xixa_txn_commits_total", L("kind", "explicit"))
	a.Add(7)

	snap := r.Snapshot()
	ids := make([]string, len(snap))
	for i, m := range snap {
		ids[i] = m.ID()
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("snapshot not sorted: %q then %q", ids[i-1], ids[i])
		}
	}
	vals := Values(snap)
	if vals["xixa_txn_commits_total"] != 7 {
		t.Fatalf("commits = %v, want 7", vals["xixa_txn_commits_total"])
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge("m")
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestHistogramBucketBoundaries pins the le-or-strictly-greater
// semantics at the exact bucket edges: a value equal to a bound lands
// in that bound's bucket (Prometheus le semantics), one ulp above
// lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	h.Observe(0)                    // -> bucket le=1
	h.Observe(1)                    // boundary: le=1 exactly
	h.Observe(math.Nextafter(1, 2)) // just above 1 -> le=10
	h.Observe(10)                   // boundary: le=10
	h.Observe(99.999)               // -> le=100
	h.Observe(100)                  // boundary: le=100
	h.Observe(100.001)              // -> +Inf overflow
	h.Observe(1e12)                 // -> +Inf overflow

	s := h.Snapshot()
	wantCounts := []uint64{2, 2, 2, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("total count = %d, want 8", s.Count)
	}
	wantSum := 0 + 1 + math.Nextafter(1, 2) + 10 + 99.999 + 100 + 100.001 + 1e12
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((seed*perWorker + i) % 700))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the le=2 bucket
	}
	q := h.Snapshot().Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1, 2]", q)
	}
	if !math.IsNaN((&HistogramSnapshot{}).Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("xixa_txn_commits_total").Add(3)
	r.Gauge("xixa_sessions_open").Set(2)
	r.GaugeFunc("xixa_mvcc_watermark", func() float64 { return 42 })
	h := r.Histogram("xixa_wal_fsync_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE xixa_txn_commits_total counter",
		"xixa_txn_commits_total 3",
		"# TYPE xixa_sessions_open gauge",
		"xixa_sessions_open 2",
		"xixa_mvcc_watermark 42",
		"# TYPE xixa_wal_fsync_seconds histogram",
		`xixa_wal_fsync_seconds_bucket{le="0.001"} 1`,
		`xixa_wal_fsync_seconds_bucket{le="0.01"} 2`,
		`xixa_wal_fsync_seconds_bucket{le="+Inf"} 3`,
		"xixa_wal_fsync_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", func() float64 { return 1 })
	r.GaugeFunc("g", func() float64 { return 2 })
	if v := Values(r.Snapshot())["g"]; v != 2 {
		t.Fatalf("g = %v, want replacement value 2", v)
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	vals := Values(r.Snapshot())
	if vals["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", vals["go_goroutines"])
	}
	if vals["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v, want > 0", vals["go_heap_alloc_bytes"])
	}
	if v := vals["go_gc_pause_seconds_total"]; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("go_gc_pause_seconds_total = %v, want finite >= 0", v)
	}
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts,
// interpolating linearly within the winning bucket.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if i == len(s.Bounds) {
			// Overflow bucket has no upper bound; report its lower edge.
			return lower
		}
		upper := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

package xstats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

func TestHistogramUniform(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i) / 100 // uniform over [0, 10)
	}
	h := newHistogram(0, 9.99, samples)
	if h.Total != 1000 {
		t.Fatalf("Total = %d", h.Total)
	}
	for _, tc := range []struct {
		bound float64
		want  float64
	}{
		{0, 0}, {5, 0.5}, {9.99, 1}, {2.5, 0.25},
	} {
		got := h.FractionBelow(tc.bound, false)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("FractionBelow(%v) = %v, want ~%v", tc.bound, got, tc.want)
		}
	}
	if h.FractionBelow(-1, true) != 0 {
		t.Error("below min must be 0")
	}
	if h.FractionBelow(100, false) != 1 {
		t.Error("above max must be 1")
	}
}

func TestHistogramSkewed(t *testing.T) {
	// 90% of mass at the low end: a histogram must see the skew, the
	// min/max uniformity assumption cannot.
	var samples []float64
	for i := 0; i < 900; i++ {
		samples = append(samples, 1)
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, 100)
	}
	h := newHistogram(1, 100, samples)
	got := h.FractionBelow(50, true)
	if got < 0.85 || got > 0.95 {
		t.Errorf("skewed FractionBelow(50) = %v, want ~0.9", got)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := newHistogram(5, 5, []float64{5, 5, 5})
	if got := h.FractionBelow(5, true); got != 1 {
		t.Errorf("point distribution <=5 = %v, want 1", got)
	}
	if got := h.FractionBelow(5, false); got != 0 {
		t.Errorf("point distribution <5 = %v, want 0", got)
	}
	var nilH *Histogram
	if nilH.FractionBelow(1, true) != 0 {
		t.Error("nil histogram must report 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := newHistogram(0, 10, []float64{1, 2, 3})
	b := newHistogram(50, 100, []float64{60, 70, 80})
	m := a.merge(b)
	if m.Total != 6 {
		t.Fatalf("merged total = %d", m.Total)
	}
	if m.Min != 0 || m.Max != 100 {
		t.Errorf("merged range = [%v,%v]", m.Min, m.Max)
	}
	// Half the mass below 25.
	got := m.FractionBelow(25, true)
	if got < 0.4 || got > 0.6 {
		t.Errorf("merged FractionBelow(25) = %v, want ~0.5", got)
	}
	// Merging with nil/empty is identity-ish.
	if a.merge(nil).Total != a.Total {
		t.Error("merge(nil) lost mass")
	}
	var nilH *Histogram
	if nilH.merge(a).Total != a.Total {
		t.Error("nil.merge(a) lost mass")
	}
}

// TestPropertyHistogramMatchesEmpirical: FractionBelow approximates the
// true empirical CDF within bucket resolution.
func TestPropertyHistogramMatchesEmpirical(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(400)
		samples := make([]float64, n)
		min, max := math.Inf(1), math.Inf(-1)
		for i := range samples {
			samples[i] = r.Float64()*100 - 50
			min = math.Min(min, samples[i])
			max = math.Max(max, samples[i])
		}
		h := newHistogram(min, max, samples)
		for probe := 0; probe < 10; probe++ {
			bound := r.Float64()*100 - 50
			truth := 0
			for _, v := range samples {
				if v <= bound {
					truth++
				}
			}
			got := h.FractionBelow(bound, true)
			want := float64(truth) / float64(n)
			// Within 1.5 bucket widths of mass.
			if math.Abs(got-want) > 1.5/float64(histogramBuckets)+0.02 {
				t.Logf("seed %d: FractionBelow(%v) = %v, empirical %v", seed, bound, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSelectivityUsesHistogramForSkew(t *testing.T) {
	// Build a table whose Qty values are heavily skewed: 95% small,
	// 5% large. Histogram-based selectivity must see that a "> mid"
	// range is rare; the uniformity assumption would say ~50%.
	db, tbl := newTable("T")
	for i := 0; i < 950; i++ {
		insertDoc(t, db, tbl, xmltree.MustParse(`<r><q>1</q></r>`))
	}
	for i := 0; i < 50; i++ {
		insertDoc(t, db, tbl, xmltree.MustParse(`<r><q>1000</q></r>`))
	}
	ts := Collect(tbl)
	ps := ts.ForPattern(xpath.MustParse("/r/q"), xpath.NumberVal)
	if ps.Hist == nil {
		t.Fatal("no histogram collected")
	}
	sel := ps.Selectivity(xpath.OpGt, xpath.NumberValue(500))
	if sel > 0.15 {
		t.Errorf("skew-aware selectivity = %v, want ~0.05 (uniform would say ~0.5)", sel)
	}
	selLow := ps.Selectivity(xpath.OpLe, xpath.NumberValue(500))
	if selLow < 0.85 {
		t.Errorf("complementary selectivity = %v, want ~0.95", selLow)
	}
}

// newHistogram builds an equi-width histogram from samples.
func newHistogram(min, max float64, samples []float64) *Histogram {
	h := &Histogram{Min: min, Max: max, Buckets: make([]int64, histogramBuckets)}
	for _, v := range samples {
		h.add(v)
	}
	return h
}

func (h *Histogram) add(v float64) {
	h.Buckets[h.bucketOf(v)]++
	h.Total++
}

package xstats

// Histogram is an equi-width histogram over the numeric values of one
// label path. Real optimizers estimate range selectivities from
// histograms rather than a min/max uniformity assumption; the synopsis
// collects one per path so skewed value distributions (e.g. TPoX order
// quantities) cost accurately.
type Histogram struct {
	Min, Max float64
	Total    int64
	Buckets  []int64
}

// histogramBuckets is the bucket count collected per path.
const histogramBuckets = 16

func (h *Histogram) bucketOf(v float64) int { return bucketIndex(h.Min, h.Max, v) }

// bucketIndex is the equi-width bucket of v over [min, max]: a pure
// function of the three, which is what lets a statistics fold move one
// value's mass between buckets without re-cutting the histogram.
func bucketIndex(min, max, v float64) int {
	if max <= min {
		return 0
	}
	i := int((v - min) / (max - min) * histogramBuckets)
	if i < 0 {
		i = 0
	}
	if i >= histogramBuckets {
		i = histogramBuckets - 1
	}
	return i
}

// FractionBelow estimates P(value < bound) (or <= when incl), with
// linear interpolation inside the bound's bucket.
func (h *Histogram) FractionBelow(bound float64, incl bool) float64 {
	if h == nil || h.Total == 0 {
		return 0
	}
	if bound < h.Min || (bound == h.Min && !incl) {
		return 0
	}
	if bound > h.Max || (bound == h.Max && incl) {
		return 1
	}
	width := (h.Max - h.Min) / float64(len(h.Buckets))
	if width <= 0 {
		// Degenerate single-point distribution.
		if bound > h.Min || (bound == h.Min && incl) {
			return 1
		}
		return 0
	}
	var below int64
	b := h.bucketOf(bound)
	for i := 0; i < b; i++ {
		below += h.Buckets[i]
	}
	// Interpolate within bucket b.
	lo := h.Min + float64(b)*width
	frac := (bound - lo) / width
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	partial := float64(h.Buckets[b]) * frac
	return (float64(below) + partial) / float64(h.Total)
}

// merge combines another histogram into h, rebucketing other's mass by
// bucket midpoints. Used when a pattern spans multiple label paths.
func (h *Histogram) merge(other *Histogram) *Histogram {
	if other == nil || other.Total == 0 {
		return h
	}
	if h == nil || h.Total == 0 {
		cp := &Histogram{Min: other.Min, Max: other.Max, Total: other.Total,
			Buckets: append([]int64(nil), other.Buckets...)}
		return cp
	}
	// Widen the domain, then redistribute both inputs by midpoint.
	min, max := h.Min, h.Max
	if other.Min < min {
		min = other.Min
	}
	if other.Max > max {
		max = other.Max
	}
	out := &Histogram{Min: min, Max: max, Buckets: make([]int64, histogramBuckets)}
	spread := func(src *Histogram) {
		width := (src.Max - src.Min) / float64(len(src.Buckets))
		for i, n := range src.Buckets {
			if n == 0 {
				continue
			}
			mid := src.Min + (float64(i)+0.5)*width
			if width <= 0 {
				mid = src.Min
			}
			out.Buckets[out.bucketOf(mid)] += n
			out.Total += n
		}
	}
	spread(h)
	spread(other)
	return out
}

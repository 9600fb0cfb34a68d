package storage

import (
	"xixa/internal/obs"
)

// InstrumentWith registers the commit pipeline's metrics on reg. The
// counters and watermarks export as pull-style gauges reading the
// mvccState the commit path updates — one source of truth — and commit
// publish latency (stamp allocation to watermark publish)
// additionally lands in a histogram observed in CommitTx. Safe to call
// at any point; an uninstrumented database pays one nil-check per
// commit.
func (db *Database) InstrumentWith(reg *obs.Registry) {
	mv := db.mv
	reg.GaugeFunc("xixa_mvcc_stamps_allocated", func() float64 {
		return float64(mv.next.Load())
	})
	reg.GaugeFunc("xixa_mvcc_watermark", func() float64 {
		return float64(mv.watermark.Load())
	})
	reg.GaugeFunc("xixa_mvcc_publish_lag", func() float64 {
		mv.pubMu.Lock()
		defer mv.pubMu.Unlock()
		return float64(len(mv.published))
	})
	reg.GaugeFunc("xixa_mvcc_publish_lag_peak", func() float64 {
		mv.pubMu.Lock()
		defer mv.pubMu.Unlock()
		return float64(mv.lagPeak)
	})
	reg.GaugeFunc("xixa_mvcc_publish_wait_seconds_total", func() float64 {
		return float64(mv.publishNs.Load()) / 1e9
	})
	// 1µs .. ~0.5s in doubling buckets.
	mv.publishHist.Store(reg.Histogram("xixa_mvcc_publish_seconds", obs.ExpBuckets(1e-6, 2, 20)))
}

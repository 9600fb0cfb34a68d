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
// commit. Each table, present or created later, adds its shape gauges.
func (db *Database) InstrumentWith(reg *obs.Registry) {
	db.mu.Lock()
	db.reg = reg
	for _, t := range db.tables {
		t.instrumentWith(reg)
	}
	db.mu.Unlock()
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

// Table gauges, labelled with the table's name: the document shapes its
// dictionary holds, and its current documents without a shape, which a
// scan walks node by node (see xmltree.Document.Shape).
const (
	shapesGauge   = "xixa_table_shapes"
	unshapedGauge = "xixa_table_unshaped_docs"
)

// ShapeGaugeIDs returns the registry identities (obs.Values keys) of
// the table's two shape gauges.
func ShapeGaugeIDs(table string) (shapes, unshaped string) {
	labels := []obs.Label{obs.L("table", table)}
	return obs.Metric{Name: shapesGauge, Labels: labels}.ID(), obs.Metric{Name: unshapedGauge, Labels: labels}.ID()
}

func (t *Table) instrumentWith(reg *obs.Registry) {
	reg.GaugeFunc(shapesGauge, func() float64 {
		shapes, _ := t.Shapes()
		return float64(shapes)
	}, obs.L("table", t.Name))
	reg.GaugeFunc(unshapedGauge, func() float64 {
		_, unshaped := t.Shapes()
		return float64(unshaped)
	}, obs.L("table", t.Name))
}

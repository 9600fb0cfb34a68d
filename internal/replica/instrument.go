package replica

// Replication observability: followers and primaries register
// pull-style gauges on their server's metrics registry, bridging the
// position atomics both already maintain. GaugeFunc re-registration
// replaces the reader, so a follower promoted to primary (and then
// wrapped in NewPrimary over the same server) rebinds cleanly.

import (
	"xixa/internal/obs"
)

// instrument registers the follower's replication position and health
// on its server's registry. Lag is exposed both ways the two ends can
// disagree: in records still waiting to apply (primary's flushed tip
// minus the last LSN consumed) and as the LSN delta to local
// durability (tip minus the last LSN fsynced here) — the distance a
// synchronous-read client could observe after a crash.
func (f *Follower) instrument(reg *obs.Registry) {
	reg.GaugeFunc("xixa_replica_epoch", func() float64 { return float64(f.epoch.Load()) })
	reg.GaugeFunc("xixa_replica_applied_lsn", func() float64 { return float64(f.applied.Load()) })
	reg.GaugeFunc("xixa_replica_primary_flushed_lsn", func() float64 { return float64(f.primaryFlushed.Load()) })
	reg.GaugeFunc("xixa_replica_lag_records", func() float64 {
		tip, applied := f.primaryFlushed.Load(), f.applied.Load()
		if tip <= applied {
			return 0
		}
		return float64(tip - applied)
	})
	reg.GaugeFunc("xixa_replica_lag_lsn", func() float64 {
		tip, durable := f.primaryFlushed.Load(), f.Server().WAL().DurableLSN()
		if tip <= durable {
			return 0
		}
		return float64(tip - durable)
	})
	reg.GaugeFunc("xixa_replica_reconnects", func() float64 { return float64(f.reconnects.Load()) })
	reg.GaugeFunc("xixa_replica_connected", func() float64 {
		if f.connected.Load() {
			return 1
		}
		return 0
	})
}

// instrument registers the primary's streaming aggregates: follower
// count and the worst follower's ack lag (flushed tip minus its last
// acked-durable LSN) — the staleness bound of the furthest-behind
// synchronous reader.
func (p *Primary) instrument(reg *obs.Registry) {
	reg.GaugeFunc("xixa_primary_epoch", func() float64 { return float64(p.epoch) })
	reg.GaugeFunc("xixa_primary_followers", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.states))
	})
	reg.GaugeFunc("xixa_primary_max_lag_records", func() float64 {
		flushed := p.srv.WAL().Flushed()
		p.mu.Lock()
		defer p.mu.Unlock()
		max := uint64(0)
		for st := range p.states {
			if acked := st.acked.Load(); flushed > acked && flushed-acked > max {
				max = flushed - acked
			}
		}
		return float64(max)
	})
}

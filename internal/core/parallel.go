package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the advisor's parallel execution substrate. The
// pipeline's hot loops — candidate enumeration, baseline costing, and
// benefit evaluation — are all "independent optimizer calls over a list
// of items", so they share one fan-out primitive, parallelFor.
//
// Determinism contract: every parallel loop writes its per-item result
// into a slot indexed by the item's ordinal and the caller reduces the
// slots serially in index order afterwards. Float addition order is
// therefore identical at every Parallelism level, so Parallelism: 1 and
// Parallelism: N produce bit-identical benefits and recommendations.

// workers normalizes the Parallelism option: values <= 0 select
// runtime.GOMAXPROCS(0), 1 is the exact serial pipeline, and any other
// value caps the fan-out width.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) on up to `workers`
// goroutines. Work is handed out through an atomic counter so uneven
// item costs balance across workers. With workers <= 1 (or n <= 1) it
// degenerates to a plain serial loop with zero goroutine overhead —
// that path is what Parallelism: 1 ablations exercise.
func parallelFor(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// parallelFor fans a loop out across the advisor's configured workers.
func (a *Advisor) parallelFor(n int, fn func(i int)) {
	parallelFor(a.Opts.workers(), n, fn)
}

// sumInOrder reduces per-item contributions serially in index order —
// the second half of the determinism contract.
func sumInOrder(parts []float64) float64 {
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}

// benefitShards is the shard count of the sub-configuration cache. 16
// shards keep lock contention negligible at any realistic Parallelism
// while the per-shard maps stay dense.
const benefitShards = 16

// benefitCache is the concurrency-safe sub-configuration cache of
// §VI-C: a string-keyed float map sharded behind RWMutexes so parallel
// benefit evaluations never serialize on a single lock.
type benefitCache struct {
	shards [benefitShards]struct {
		mu sync.RWMutex
		m  map[string]float64
	}
}

func newBenefitCache() *benefitCache {
	c := &benefitCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]float64)
	}
	return c
}

// shardFor is an inline FNV-1a over the key: this runs on every cache
// probe of every benefit evaluation, so it must not allocate.
func shardFor[K string | []byte](key K) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % benefitShards)
}

// get looks key up. It takes the key's bytes: the m[string(key)] index
// does not copy them, so a probe allocates nothing.
func (c *benefitCache) get(key []byte) (float64, bool) {
	s := &c.shards[shardFor(key)]
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	return v, ok
}

func (c *benefitCache) put(key string, v float64) {
	s := &c.shards[shardFor(key)]
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

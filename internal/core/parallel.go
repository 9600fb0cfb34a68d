package core

import (
	"runtime"
	"sync"
)

// This file holds the advisor's parallel execution substrate. The
// whole-workload loops that run once per advisor — candidate
// enumeration, the coverage matrix, baseline and mc costing,
// WorkloadCostUnder and the DisableAffectedSets ablation — are all
// "independent calls over a list of items", so they share one fan-out
// primitive, parallelFor. A search trial's optimizer calls do not fan
// out: each is a memo hit of a microsecond or two, and a hand-off to
// another goroutine costs more than it saves (see the Evaluator).
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
// goroutines. Each worker takes one contiguous chunk of the range, so
// neighbouring result slots are written by one worker and no item
// costs a shared atomic. With workers <= 1 (or n <= 1) it degenerates
// to a plain serial loop with zero goroutine overhead — that path is
// what Parallelism: 1 ablations exercise.
func parallelFor(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := func(w int) {
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			fn(i)
		}
	}
	// The calling goroutine works the first chunk.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			chunk(w)
		}()
	}
	chunk(0)
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

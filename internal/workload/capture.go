package workload

import (
	"sync"

	"xixa/internal/xquery"
)

// Capture is a bounded live-workload sample: the serving layer's
// sessions feed every executed statement into it, and the autonomous
// tuning loop reads it back as the advisor's training workload — the
// paper's "representative workload the DBA assembles" (§VI-B) replaced
// by continuous capture inside the server.
//
// Statements are keyed by their normalized form
// (xquery.Statement.NormalizedKey), so the same logical statement
// arriving from many sessions — possibly with different raw spellings —
// accumulates one frequency-weighted entry. Weights decay exponentially
// (Decay, applied by the tuning loop once per round), so the capture
// tracks the live traffic mix instead of the whole history: a query
// that stopped arriving fades out and eventually frees its slot.
//
// When the ring is full, observing a new statement evicts the entry
// with the lowest weight (ties broken by oldest first-seen), keeping
// the hot statements and bounding memory no matter how diverse the
// traffic is.
//
// A Capture is safe for concurrent use.
type Capture struct {
	mu      sync.Mutex
	size    int
	entries map[string]*captureEntry
	order   []*captureEntry // first-seen order, for deterministic output

	// decays counts Decay rounds applied — the capture's decay epoch.
	// Two rings decayed a different number of times hold weights in
	// different units (each missed round leaves a ring's weights a
	// factor heavier); Merge aligns epochs before summing so a shard
	// that joined late, or tuned on a different cadence, doesn't skew
	// the merged frequency mix toward its less-decayed ring.
	decays      int64
	decayFactor float64

	// Cardinality feedback (cardinality.go) lives under its own mutex
	// so per-plan-node observations never contend with statement
	// observation on the query hot path.
	cardMu sync.Mutex
	cards  map[[2]string]*cardAgg
}

type captureEntry struct {
	key    string // the statement's NormalizedKey
	stmt   *xquery.Statement
	weight float64
}

// DefaultCaptureSize bounds the ring when NewCapture is given 0.
const DefaultCaptureSize = 256

// NewCapture creates a capture ring holding at most size distinct
// normalized statements (0 selects DefaultCaptureSize).
func NewCapture(size int) *Capture {
	if size <= 0 {
		size = DefaultCaptureSize
	}
	return &Capture{size: size, entries: make(map[string]*captureEntry)}
}

// Observe records weight executions of stmt (weight <= 0 counts as 1).
func (c *Capture) Observe(stmt *xquery.Statement, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	key := stmt.NormalizedKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(key, stmt, weight)
}

func (c *Capture) observeLocked(key string, stmt *xquery.Statement, weight float64) {
	if e, ok := c.entries[key]; ok {
		e.weight += weight
		return
	}
	if len(c.entries) >= c.size {
		c.evictLocked()
	}
	e := &captureEntry{key: key, stmt: stmt, weight: weight}
	c.entries[key] = e
	c.order = append(c.order, e)
}

// evictLocked drops the lowest-weight entry, the oldest on ties: order
// is first-seen order, so that is the first of the lightest. It runs
// under the capture's mutex on every observation of a new statement
// into a full ring, so it scans the entries themselves, not the map.
func (c *Capture) evictLocked() {
	if len(c.order) == 0 {
		return
	}
	victim := 0
	for i, e := range c.order {
		if e.weight < c.order[victim].weight {
			victim = i
		}
	}
	delete(c.entries, c.order[victim].key)
	c.order = append(c.order[:victim], c.order[victim+1:]...)
}

// Merge folds another capture into this one, summing weights per
// normalized statement — the frequency-weighted merge the per-session
// staging path and the sharded stats plane use. (The naive raw-keyed
// merge either duplicated the statement per spelling or let the last
// session's entry win; summing by normalized key is what makes
// multi-session capture equal a single-session capture of the
// interleaved stream.)
//
// Captures at different decay epochs are aligned to the older (more
// decayed) epoch first: the younger side's weights are scaled by
// factor^(epoch difference) before summing, as if it had been present
// for every missed round. Without this, merging a ring decayed 10
// times with one decayed twice would let the younger ring's raw
// weights dominate even when its true traffic rate is identical.
func (c *Capture) Merge(other *Capture) {
	other.mu.Lock()
	type pair struct {
		key    string
		stmt   *xquery.Statement
		weight float64
	}
	pairs := make([]pair, 0, len(other.order))
	for _, e := range other.order {
		pairs = append(pairs, pair{key: e.key, stmt: e.stmt, weight: e.weight})
	}
	otherDecays, otherFactor := other.decays, other.decayFactor
	other.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	scaleIn := 1.0
	if d := c.decays - otherDecays; d > 0 {
		// Incoming ring is younger: decay its weights the rounds it
		// missed, under its own decay regime (falling back to ours if
		// it never decayed and so never recorded a factor).
		scaleIn = alignScale(otherFactor, c.decayFactor, d)
	} else if d < 0 {
		// Receiver is younger: catch our existing entries up to the
		// incoming ring's epoch, then adopt it.
		s := alignScale(c.decayFactor, otherFactor, -d)
		for _, e := range c.order {
			e.weight *= s
		}
		c.decays = otherDecays
		if c.decayFactor <= 0 || c.decayFactor >= 1 {
			c.decayFactor = otherFactor
		}
	}
	for _, p := range pairs {
		c.observeLocked(p.key, p.stmt, p.weight*scaleIn)
	}
}

// alignScale is the weight multiplier that advances a ring diff decay
// epochs: factor^diff, preferring the ring's own recorded factor and
// falling back to the peer's. A ring that has never decayed under a
// valid factor merges unscaled (factor 1) — there is no regime to
// extrapolate.
func alignScale(factor, fallback float64, diff int64) float64 {
	f := factor
	if f <= 0 || f >= 1 {
		f = fallback
	}
	if f <= 0 || f >= 1 {
		return 1
	}
	s := 1.0
	for ; diff > 0; diff-- {
		s *= f
	}
	return s
}

// Decay multiplies every weight by factor in (0,1) and drops entries
// whose weight fell below floor, freeing their slots. The tuning loop
// calls this once per round so old traffic fades at a rate tied to
// tuning cadence, not wall-clock.
func (c *Capture) Decay(factor, floor float64) {
	if factor <= 0 || factor >= 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.order[:0]
	for _, e := range c.order {
		e.weight *= factor
		if e.weight < floor {
			delete(c.entries, e.key)
			continue
		}
		live = append(live, e)
	}
	clear(c.order[len(live):])
	c.order = live
	c.decays++
	c.decayFactor = factor
}

// CaptureState is one entry of a capture's persistent form: the raw
// statement text (re-parsed on Import) and its decayed weight. The
// normalized key is not stored — it is a function of the parsed
// statement and is recomputed on restore.
type CaptureState struct {
	Raw    string
	Weight float64
}

// Export returns the capture's persistent form in first-seen order —
// the sidecar each checkpoint carries so a restarted daemon's tuner
// warm-starts from the checkpointed workload instead of relearning it.
func (c *Capture) Export() []CaptureState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CaptureState, 0, len(c.order))
	for _, e := range c.order {
		out = append(out, CaptureState{Raw: e.stmt.Raw, Weight: e.weight})
	}
	return out
}

// Import folds an exported capture back in, re-parsing each raw
// statement and restoring its weight and first-seen order. Entries
// that no longer parse (a statement dialect change between runs) are
// skipped. It returns the number of entries restored.
func (c *Capture) Import(states []CaptureState) int {
	restored := 0
	for _, s := range states {
		stmt, err := xquery.Parse(s.Raw)
		if err != nil {
			continue
		}
		c.Observe(stmt, s.Weight)
		restored++
	}
	return restored
}

// Len returns the number of distinct normalized statements held.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Workload converts the capture into an advisor workload: statements in
// first-seen order, frequencies rounded from decayed weights (minimum
// 1). The returned workload is independent of later observations.
func (c *Capture) Workload() *Workload {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &Workload{}
	for _, e := range c.order {
		freq := int(e.weight + 0.5)
		if freq < 1 {
			freq = 1
		}
		w.Items = append(w.Items, Item{Stmt: e.stmt, Freq: freq})
	}
	return w
}

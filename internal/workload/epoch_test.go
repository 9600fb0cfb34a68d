package workload

import (
	"math"
	"testing"

	"xixa/internal/xquery"
)

const (
	epochQ1 = `for $s in SECURITY('SDOC')/Security where $s/Symbol = "EP1" return $s`
	epochQ2 = `for $s in SECURITY('SDOC')/Security where $s/Symbol = "EP2" return $s`
	epochQ3 = `for $s in SECURITY('SDOC')/Security where $s/Symbol = "EP3" return $s`
)

func weightOf(t *testing.T, c *Capture, raw string) float64 {
	t.Helper()
	key := xquery.MustParse(raw).NormalizedKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		t.Fatalf("capture does not hold %q", raw)
	}
	return e.weight
}

// Two shards see the same traffic rate for their respective
// statements, but one shard's ring has been decayed one more round
// than the other's (it tuned on a faster cadence, or the other shard
// joined late). A naive weight sum would report the younger ring's
// statement as 2x hotter; the aligned merge must weight them equally.
func TestCaptureMergeAlignsStaggeredDecayEpochs(t *testing.T) {
	older := NewCapture(8)
	older.Observe(xquery.MustParse(epochQ1), 8)
	older.Decay(0.5, 0.01) // epoch 1: weight 4
	older.Decay(0.5, 0.01) // epoch 2: weight 2

	younger := NewCapture(8)
	younger.Observe(xquery.MustParse(epochQ2), 8)
	younger.Decay(0.5, 0.01) // epoch 1: weight 4, one round behind older

	if got := older.DecayEpoch(); got != 2 {
		t.Fatalf("older epoch = %d, want 2", got)
	}
	if got := younger.DecayEpoch(); got != 1 {
		t.Fatalf("younger epoch = %d, want 1", got)
	}

	older.Merge(younger)
	// Q2's weight 4 is one decay round behind; aligned to epoch 2 it
	// becomes 4 * 0.5 = 2, matching Q1 exactly.
	if w1, w2 := weightOf(t, older, epochQ1), weightOf(t, older, epochQ2); math.Abs(w1-w2) > 1e-12 {
		t.Fatalf("staggered merge skewed weights: q1=%v q2=%v", w1, w2)
	}
	if got := older.DecayEpoch(); got != 2 {
		t.Fatalf("merged epoch = %d, want 2", got)
	}
}

// Merging the older ring INTO the younger one must give the same
// relative weights: the receiver's entries are caught up to the
// incoming ring's epoch and the receiver adopts that epoch.
func TestCaptureMergeAlignsReceiverBehind(t *testing.T) {
	older := NewCapture(8)
	older.Observe(xquery.MustParse(epochQ1), 8)
	older.Decay(0.5, 0.01)
	older.Decay(0.5, 0.01) // epoch 2, weight 2

	younger := NewCapture(8)
	younger.Observe(xquery.MustParse(epochQ3), 8) // epoch 0, weight 8

	younger.Merge(older)
	if got := younger.DecayEpoch(); got != 2 {
		t.Fatalf("receiver did not adopt the older epoch: got %d, want 2", got)
	}
	// Q3 is two rounds behind: 8 * 0.5^2 = 2, equal to Q1's 2.
	if w1, w3 := weightOf(t, younger, epochQ1), weightOf(t, younger, epochQ3); math.Abs(w1-w3) > 1e-12 {
		t.Fatalf("receiver-behind merge skewed weights: q1=%v q3=%v", w1, w3)
	}

	// And with no decay regime recorded anywhere, same-epoch merges
	// still sum raw weights (no spurious scaling).
	a, b := NewCapture(8), NewCapture(8)
	a.Observe(xquery.MustParse(epochQ1), 3)
	b.Observe(xquery.MustParse(epochQ1), 4)
	a.Merge(b)
	if w := weightOf(t, a, epochQ1); math.Abs(w-7) > 1e-12 {
		t.Fatalf("same-epoch merge weight = %v, want 7", w)
	}
}

// DecayEpoch reports how many Decay rounds have been applied. Merge
// uses the epoch difference between two captures to bring their
// weights into the same units before summing.
func (c *Capture) DecayEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decays
}

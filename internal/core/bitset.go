package core

import "math/bits"

// BitSet is a compact set of statement ordinals, used for affected-set
// bookkeeping (paper §VI-C) and the greedy heuristic's pattern bitmap.
type BitSet struct {
	words []uint64
}

// NewBitSet returns a set sized for n elements.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Set adds element i.
func (b *BitSet) Set(i int) {
	w := i / 64
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << uint(i%64)
}

// Has reports whether i is a member.
func (b *BitSet) Has(i int) bool {
	w := i / 64
	return w < len(b.words) && b.words[w]&(1<<uint(i%64)) != 0
}

// Or merges other into b.
func (b *BitSet) Or(other *BitSet) {
	if grow := len(other.words) - len(b.words); grow > 0 {
		b.words = append(b.words, make([]uint64, grow)...)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Intersects reports whether the sets share any element.
func (b *BitSet) Intersects(other *BitSet) bool {
	n := len(b.words)
	if len(other.words) < n {
		n = len(other.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elements returns the members in ascending order.
func (b *BitSet) Elements() []int {
	var out []int
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, wi*64+bit)
			w &^= 1 << uint(bit)
		}
	}
	return out
}

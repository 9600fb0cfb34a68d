// Package btree implements an in-memory B+-tree over byte-comparable
// keys with uint64 payloads. It backs the XML path-value indexes: keys
// are order-preserving encodings of typed node values and payloads are
// packed (document, node) references.
//
// The tree reports page-level statistics (leaf pages, levels, bytes)
// because the optimizer's cost model and the advisor's disk-budget
// accounting are defined in terms of on-disk index size, as in the
// paper's DB2 substrate.
package btree

import (
	"bytes"
	"fmt"
)

// DefaultOrder is the fan-out used when NewTree is called with order 0.
// 128-way nodes model 8 KiB pages with short keys.
const DefaultOrder = 128

// Entry is a single key/value pair stored in a leaf.
type Entry struct {
	Key []byte
	Val uint64
}

// Tree is a B+-tree. The zero value is not usable; call NewTree.
//
// Duplicate keys are allowed; entries are totally ordered by (Key, Val).
// Deletion is by exact (Key, Val) pair and uses leaf compaction: a leaf
// that becomes empty is unlinked, but non-empty leaves are not
// rebalanced. Searches remain correct because separator keys stay valid
// upper bounds; space overhead is bounded by the deleted fraction.
type Tree struct {
	order int
	root  *node
	size  int
	// keyBytes tracks the total size of stored keys for size accounting.
	keyBytes int64
}

type node struct {
	leaf bool
	// keys: leaf entry keys, or internal separators (len(children)-1).
	keys [][]byte
	// vals: leaf entry payloads, or internal separator payloads. With
	// duplicate keys allowed, separators must order by the full
	// (key, val) pair or entries sharing a key could become unreachable
	// after a split places them in different leaves.
	vals     []uint64
	children []*node // internal only
	next     *node   // leaf chain
}

// NewTree returns an empty tree with the given order (maximum number of
// children per internal node; maximum entries per leaf). Order 0 selects
// DefaultOrder. Orders below 3 are rejected.
func NewTree(order int) (*Tree, error) {
	if order == 0 {
		order = DefaultOrder
	}
	if order < 3 {
		return nil, fmt.Errorf("btree: order %d too small (minimum 3)", order)
	}
	return &Tree{order: order, root: &node{leaf: true}}, nil
}

// MustNewTree is NewTree that panics on error, for statically valid orders.
func MustNewTree(order int) *Tree {
	t, err := NewTree(order)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// cmp orders entries by (key, val).
func cmp(aKey []byte, aVal uint64, bKey []byte, bVal uint64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aVal < bVal:
		return -1
	case aVal > bVal:
		return 1
	default:
		return 0
	}
}

// leafInsertPos finds the first index in the leaf whose (key,val) is >=
// the probe.
func leafInsertPos(n *node, key []byte, val uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(n.keys[mid], n.vals[mid], key, val) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex finds the child to descend into for the probe pair.
func childIndex(n *node, key []byte, val uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		// Separator (keys[i], vals[i]) is a lower bound of children[i+1].
		if cmp(n.keys[mid], n.vals[mid], key, val) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds an entry. Duplicate (key, val) pairs are stored once; a
// second insert of the same pair is a no-op and returns false.
func (t *Tree) Insert(key []byte, val uint64) bool {
	k := make([]byte, len(key))
	copy(k, key)
	newChild, sepKey, sepVal, inserted := t.insert(t.root, k, val)
	if newChild != nil {
		t.root = &node{
			leaf:     false,
			keys:     [][]byte{sepKey},
			vals:     []uint64{sepVal},
			children: []*node{t.root, newChild},
		}
	}
	if inserted {
		t.size++
		t.keyBytes += int64(len(k))
	}
	return inserted
}

// insert descends, inserts, and propagates splits. Returns the new right
// sibling and its separator pair if the node split.
func (t *Tree) insert(n *node, key []byte, val uint64) (*node, []byte, uint64, bool) {
	if n.leaf {
		pos := leafInsertPos(n, key, val)
		if pos < len(n.keys) && cmp(n.keys[pos], n.vals[pos], key, val) == 0 {
			return nil, nil, 0, false // duplicate pair
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[pos+1:], n.keys[pos:])
		n.keys[pos] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[pos+1:], n.vals[pos:])
		n.vals[pos] = val
		if len(n.keys) <= t.order {
			return nil, nil, 0, true
		}
		// Split leaf.
		mid := len(n.keys) / 2
		right := &node{leaf: true}
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		right.next = n.next
		n.next = right
		return right, right.keys[0], right.vals[0], true
	}
	ci := childIndex(n, key, val)
	newChild, sepKey, sepVal, inserted := t.insert(n.children[ci], key, val)
	if newChild == nil {
		return nil, nil, 0, inserted
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.vals = append(n.vals, 0)
	copy(n.vals[ci+1:], n.vals[ci:])
	n.vals[ci] = sepVal
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.children) <= t.order {
		return nil, nil, 0, inserted
	}
	// Split internal node.
	midKey := len(n.keys) / 2
	upSepKey, upSepVal := n.keys[midKey], n.vals[midKey]
	right := &node{leaf: false}
	right.keys = append(right.keys, n.keys[midKey+1:]...)
	right.vals = append(right.vals, n.vals[midKey+1:]...)
	right.children = append(right.children, n.children[midKey+1:]...)
	n.keys = n.keys[:midKey:midKey]
	n.vals = n.vals[:midKey:midKey]
	n.children = n.children[: midKey+1 : midKey+1]
	return right, upSepKey, upSepVal, true
}

// Delete removes the exact (key, val) pair, reporting whether it was
// present.
func (t *Tree) Delete(key []byte, val uint64) bool {
	removed := t.remove(t.root, key, val)
	if removed {
		t.size--
		t.keyBytes -= int64(len(key))
	}
	// Collapse a root that lost all leaves.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true}
	}
	return removed
}

func (t *Tree) remove(n *node, key []byte, val uint64) bool {
	if n.leaf {
		pos := leafInsertPos(n, key, val)
		if pos >= len(n.keys) || cmp(n.keys[pos], n.vals[pos], key, val) != 0 {
			return false
		}
		copy(n.keys[pos:], n.keys[pos+1:])
		n.keys = n.keys[:len(n.keys)-1]
		copy(n.vals[pos:], n.vals[pos+1:])
		n.vals = n.vals[:len(n.vals)-1]
		return true
	}
	ci := childIndex(n, key, val)
	child := n.children[ci]
	if !t.remove(child, key, val) {
		return false
	}
	// Unlink an emptied child (leaf compaction).
	empty := (child.leaf && len(child.keys) == 0) || (!child.leaf && len(child.children) == 0)
	if empty {
		if child.leaf {
			t.unlinkLeaf(child)
		}
		copy(n.children[ci:], n.children[ci+1:])
		n.children = n.children[:len(n.children)-1]
		if len(n.keys) > 0 {
			ki := ci
			if ki >= len(n.keys) {
				ki = len(n.keys) - 1
			}
			copy(n.keys[ki:], n.keys[ki+1:])
			n.keys = n.keys[:len(n.keys)-1]
			copy(n.vals[ki:], n.vals[ki+1:])
			n.vals = n.vals[:len(n.vals)-1]
		}
	}
	return true
}

// unlinkLeaf removes the leaf from the leaf chain.
func (t *Tree) unlinkLeaf(target *node) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if n == target {
		return // head removal handled by parent pointer surgery
	}
	for n != nil && n.next != target {
		n = n.next
	}
	if n != nil {
		n.next = target.next
	}
}

// Get reports whether any entry has the exact key, and returns the
// values of all entries with that key in val order.
func (t *Tree) Get(key []byte) []uint64 {
	var out []uint64
	t.AscendRange(key, key, true, true, func(_ []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// AscendRange visits entries with lo <= key <= hi (bounds included per
// the flags; a nil bound is unbounded) in (key, val) order. The visit
// function returns false to stop early. AscendRange reports the number
// of entries visited.
func (t *Tree) AscendRange(lo, hi []byte, loIncl, hiIncl bool, visit func(key []byte, val uint64) bool) int {
	n := t.root
	if lo != nil {
		for !n.leaf {
			n = n.children[childIndex(n, lo, 0)]
		}
	} else {
		for !n.leaf {
			n = n.children[0]
		}
	}
	visited := 0
	for ; n != nil; n = n.next {
		for i := range n.keys {
			k, v := n.keys[i], n.vals[i]
			if lo != nil {
				c := bytes.Compare(k, lo)
				if c < 0 || (c == 0 && !loIncl) {
					continue
				}
			}
			if hi != nil {
				c := bytes.Compare(k, hi)
				if c > 0 || (c == 0 && !hiIncl) {
					return visited
				}
			}
			visited++
			if !visit(k, v) {
				return visited
			}
		}
	}
	return visited
}

// Levels returns the height of the tree (1 for a single leaf), matching
// the "number of index levels" statistic the optimizer cost model uses.
func (t *Tree) Levels() int {
	levels := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		levels++
	}
	return levels
}

// SizeBytes estimates the stored size of the tree: key bytes plus
// per-entry and per-page overheads. The same formula is used by the
// statistics module to size virtual indexes, so real and virtual sizes
// are directly comparable.
func (t *Tree) SizeBytes() int64 {
	return EstimateSizeBytes(t.size, t.keyBytes, t.order)
}

// Per-entry and per-page constants shared with virtual-index sizing.
const (
	EntryOverheadBytes = 10 // payload + slot
	PageOverheadBytes  = 64
)

// EstimateSizeBytes computes the size model for a (possibly virtual)
// tree holding entries total key bytes across n entries at the given
// order. Exported so virtual indexes derive sizes from statistics with
// the identical formula real indexes use.
func EstimateSizeBytes(n int, keyBytes int64, order int) int64 {
	if order <= 0 {
		order = DefaultOrder
	}
	if n == 0 {
		return PageOverheadBytes
	}
	// Leaves are ~2/3 full on average after random splits.
	fill := (order*2 + 2) / 3
	leaves := (n + fill - 1) / fill
	// Internal pages form a geometric series; approximate with /order.
	internal := 0
	for level := leaves; level > 1; level = (level + order - 1) / order {
		internal += (level + order - 1) / order
	}
	return keyBytes + int64(n)*EntryOverheadBytes + int64(leaves+internal+1)*PageOverheadBytes
}

// EstimateLevels computes the expected number of levels for an index of
// n entries at the given order, for virtual-index statistics.
func EstimateLevels(n, order int) int {
	if order <= 0 {
		order = DefaultOrder
	}
	if n == 0 {
		return 1
	}
	fill := (order*2 + 2) / 3
	levels := 1
	pages := (n + fill - 1) / fill
	for pages > 1 {
		pages = (pages + order - 1) / order
		levels++
	}
	return levels
}

package xmltree

// A document's shape is its sequence of (PathID, Kind) pairs in
// document order. The sequence fixes the tree: a node's parent is the
// nearest earlier element whose PathID is the node's parent path (a
// text node carries its parent's own PathID), because any element
// between the parent and the node in document order lies in the
// parent's subtree and so is deeper than the parent. Two documents of
// one shape therefore have equal Parent, Level and EndID columns and
// differ only in their values.
//
// A table's PathDict interns the shape of every document it summarizes
// and hands it a dense ShapeID, so a scan can keep per-shape facts — in
// xpath, the positions a compiled path visits — and reuse them for
// every document of the shape. The dictionary holds at most maxShapes
// shapes; a document whose shape would be a new one past the bound
// carries none, as do documents InternPaths has not summarized
// (uncommitted or hand-built ones).

// ShapeID identifies one document shape within a PathDict. IDs are
// dense (0..Shapes-1) and assigned in first-seen order.
type ShapeID int32

// NoShape marks a document without an interned shape.
const NoShape ShapeID = -1

// maxShapes bounds the shapes one dictionary interns. Shapes are never
// evicted (documents hold their IDs), so a table of schema-less
// documents stops at the bound and its later new shapes take the
// shape-free path.
const maxShapes = 1024

// shapeCode packs one node's part of the shape sequence. PathIDs start
// at NoPath (-1), so pid+1 fits in the upper 30 bits.
func shapeCode(pid PathID, kind Kind) uint32 {
	return uint32(pid+1)<<2 | uint32(kind)
}

// shapeHash folds one node's shape code into an FNV-1a style hash.
// Candidates with equal hashes are compared in full, so the hash only
// needs to spread.
func shapeHash(h uint64, code uint32) uint64 {
	return (h ^ uint64(code)) * 1099511628211
}

const shapeHashSeed uint64 = 14695981039346656037

// Shape returns the document's shape in its dictionary, or NoShape.
func (d *Document) Shape() ShapeID { return ShapeID(d.paths.shape) - 1 }

// RepeatsShape reports whether the document's shape was interned before
// it: an earlier document of the dictionary had it. A scan that keeps
// per-shape facts has no use for them on a shape's first document,
// which in a table of unique shapes is every document.
func (d *Document) RepeatsShape() bool { return d.paths.repeats }

// Shapes returns the number of shapes the dictionary has interned.
func (d *PathDict) Shapes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.shapeSeqs)
}

// internShape returns the shape of doc, whose PathIDs refer to d and
// hash to h, interning it when it is new and the bound allows; known
// reports that it was interned before.
func (d *PathDict) internShape(doc *Document, h uint64) (id ShapeID, known bool) {
	d.mu.RLock()
	id, full := d.findShapeLocked(doc, h), len(d.shapeSeqs) >= maxShapes
	d.mu.RUnlock()
	if id != NoShape || full {
		return id, id != NoShape
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id = d.findShapeLocked(doc, h); id != NoShape || len(d.shapeSeqs) >= maxShapes {
		return id, id != NoShape
	}
	seq := make([]uint32, len(doc.Nodes))
	for i := range doc.Nodes {
		seq[i] = shapeCode(doc.PathIDs[i], doc.Nodes[i].Kind)
	}
	id = ShapeID(len(d.shapeSeqs))
	d.shapeSeqs = append(d.shapeSeqs, seq)
	if d.shapes == nil {
		d.shapes = make(map[uint64][]ShapeID)
	}
	d.shapes[h] = append(d.shapes[h], id)
	return id, false
}

// findShapeLocked looks doc's sequence up among the shapes hashing to
// h. Callers hold d.mu.
func (d *PathDict) findShapeLocked(doc *Document, h uint64) ShapeID {
next:
	for _, id := range d.shapes[h] {
		seq := d.shapeSeqs[id]
		if len(seq) != len(doc.Nodes) {
			continue
		}
		for i, code := range seq {
			if code != shapeCode(doc.PathIDs[i], doc.Nodes[i].Kind) {
				continue next
			}
		}
		return id
	}
	return NoShape
}

package xmltree

import (
	"strconv"
	"strings"
	"sync"
)

// PathID identifies one distinct rooted label path within a PathDict.
// IDs are dense (0..Len-1) and assigned in first-seen order, so slices
// indexed by PathID are the natural per-path accumulator structure.
type PathID int32

// NoPath marks a node without an interned path (documents whose paths
// have not been interned yet).
const NoPath PathID = -1

// PathEntry is one distinct rooted label path of a dictionary, stored
// as a (parent, label) pair — the structural-summary (DataGuide) edge
// representation. Storing only the edge keeps the dictionary O(paths)
// even for pathological chain documents; the rendered path and the
// label slice are derived on demand.
type PathEntry struct {
	// Parent is the entry of the path without its last label, or NoPath
	// for root paths.
	Parent PathID
	// Label is the last label of the path: an element name or "@name"
	// for attributes.
	Label string
}

type pathKey struct {
	parent PathID
	label  string
}

// PathDict is a dictionary of rooted label paths (a structural summary
// / DataGuide): every distinct path that occurs in a document collection
// maps to a dense PathID. Tables own one dictionary shared by all of
// their documents, which makes per-path statistics and index pattern
// matching O(distinct paths) instead of O(nodes).
//
// A PathDict is safe for concurrent use. Interning happens on the
// document-insert path; lookups are read-mostly and take only a read
// lock.
type PathDict struct {
	mu      sync.RWMutex
	byKey   map[pathKey]PathID
	entries []PathEntry
}

// NewPathDict returns an empty dictionary.
func NewPathDict() *PathDict {
	return &PathDict{byKey: make(map[pathKey]PathID)}
}

// Len returns the number of distinct paths interned so far.
func (d *PathDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Intern returns the ID of the path formed by extending parent with
// label, creating it if it does not exist. parent is NoPath for root
// paths.
func (d *PathDict) Intern(parent PathID, label string) PathID {
	key := pathKey{parent: parent, label: label}
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[key]; ok {
		return id
	}
	id = PathID(len(d.entries))
	d.entries = append(d.entries, PathEntry{Parent: parent, Label: label})
	d.byKey[key] = id
	return id
}

// Entry returns the (parent, label) edge of a path.
func (d *PathDict) Entry(id PathID) PathEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.entries[id]
}

// Snapshot returns the current entries indexed by PathID. Entries are
// append-only, so the returned slice stays valid as the dictionary
// grows; parents always precede children, enabling single-pass
// algorithms over the snapshot.
func (d *PathDict) Snapshot() []PathEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.entries[:len(d.entries):len(d.entries)]
}

// Labels returns the root-to-node labels of the path, attributes
// spelled "@name". The walk up the parent chain is iterative, so
// arbitrarily deep paths cannot overflow the stack.
func (d *PathDict) Labels(id PathID) []string {
	entries := d.Snapshot()
	n := 0
	for cur := id; cur >= 0; cur = entries[cur].Parent {
		n++
	}
	out := make([]string, n)
	for cur := id; cur >= 0; cur = entries[cur].Parent {
		n--
		out[n] = entries[cur].Label
	}
	return out
}

// Path renders the rooted label path, e.g. "/Security/SecInfo/Sector"
// or "/Security/@id".
func (d *PathDict) Path(id PathID) string {
	entries := d.Snapshot()
	size := 0
	for cur := id; cur >= 0; cur = entries[cur].Parent {
		size += 1 + len(entries[cur].Label)
	}
	buf := make([]byte, size)
	pos := size
	for cur := id; cur >= 0; cur = entries[cur].Parent {
		label := entries[cur].Label
		pos -= len(label)
		copy(buf[pos:], label)
		pos--
		buf[pos] = '/'
	}
	return string(buf)
}

// PathSig is a fixed-size signature of a set of PathIDs: bit id mod 256
// is set for every member. Two sets whose signatures do not intersect
// are disjoint; the converse holds exactly while the dictionary has at
// most 256 paths and degrades to a Bloom-style "maybe" beyond that. The
// fixed size keeps a per-document path set at 32 bytes however large a
// schema-less table's dictionary grows.
type PathSig [4]uint64

// Add puts id into the set.
func (s *PathSig) Add(id PathID) { s[(id>>6)&3] |= 1 << (uint(id) & 63) }

// Intersects reports whether the two sets may share a member.
func (s *PathSig) Intersects(o *PathSig) bool {
	return s[0]&o[0]|s[1]&o[1]|s[2]&o[2]|s[3]&o[3] != 0
}

// pathSummary is what a document knows about its own PathIDs without
// walking them: their signature and the largest one.
type pathSummary struct {
	sig  PathSig
	max  PathID
	done bool
}

// PathSummary returns the signature of the PathIDs the document carries
// and the largest of them (NoPath for an empty document). ok is false
// until InternPaths has attached the document to a dictionary — a
// summary describes IDs of that dictionary only. Scans use it to reject
// a document that carries none of the paths a predicate needs without
// visiting a node, and to notice IDs newer than their own tables.
func (doc *Document) PathSummary() (sig *PathSig, max PathID, ok bool) {
	return &doc.paths.sig, doc.paths.max, doc.paths.done
}

func (doc *Document) summarizePaths() {
	ps := pathSummary{max: NoPath, done: true}
	for _, id := range doc.PathIDs {
		if id < 0 {
			continue
		}
		ps.sig.Add(id)
		if id > ps.max {
			ps.max = id
		}
	}
	doc.paths = ps
}

// nodeLabel spells a node's dictionary label: the element name, or
// "@name" for attributes.
func nodeLabel(kind Kind, name string) string {
	if kind == Attribute {
		return "@" + name
	}
	return name
}

// internPathsFrom assigns PathIDs to every node of the document against
// dict in one forward pass. Document order guarantees parents precede
// children, so each node's path extends an already-interned one. Text
// nodes take their parent's path, matching LabelPath's convention.
func (doc *Document) internPathsFrom(dict *PathDict) {
	ids := doc.PathIDs
	if cap(ids) < len(doc.Nodes) {
		ids = make([]PathID, len(doc.Nodes))
	} else {
		ids = ids[:len(doc.Nodes)]
	}
	for i := range doc.Nodes {
		n := &doc.Nodes[i]
		parent := NoPath
		if n.Parent >= 0 {
			parent = ids[n.Parent]
		}
		if n.Kind == Text {
			ids[i] = parent
			continue
		}
		ids[i] = dict.Intern(parent, nodeLabel(n.Kind, n.Name))
	}
	doc.PathIDs = ids
	doc.Dict = dict
}

// InternPaths ensures every node of the document carries a PathID from
// dict. Documents already interned against dict are left untouched;
// documents interned against another dictionary are remapped through it
// (one pass over the old dictionary plus one over the PathIDs, not a
// per-node re-intern); otherwise paths are interned from scratch.
//
// storage.Table calls this on insert so all documents of a table share
// the table's dictionary.
func (doc *Document) InternPaths(dict *PathDict) {
	if dict == nil {
		return
	}
	if doc.Dict == dict && len(doc.PathIDs) == len(doc.Nodes) {
		if !doc.paths.done {
			doc.summarizePaths()
		}
		return
	}
	if doc.Dict != nil && len(doc.PathIDs) == len(doc.Nodes) {
		old := doc.Dict.Snapshot()
		remap := make([]PathID, len(old))
		for i, e := range old {
			parent := NoPath
			if e.Parent >= 0 {
				parent = remap[e.Parent]
			}
			remap[i] = dict.Intern(parent, e.Label)
		}
		for i, pid := range doc.PathIDs {
			if pid >= 0 {
				doc.PathIDs[i] = remap[pid]
			}
		}
		doc.Dict = dict
		doc.summarizePaths()
		return
	}
	doc.internPathsFrom(dict)
	doc.summarizePaths()
}

// NumericLead reports whether a first byte can start any lexical form
// strconv.ParseFloat accepts (decimal, hex floats, inf/infinity, NaN,
// signs) — a cheap filter that rejects the common non-numeric case
// before paying a parse.
func NumericLead(c byte) bool {
	switch {
	case c >= '0' && c <= '9':
		return true
	case c == '+' || c == '-' || c == '.':
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return true
	}
	return false
}

// ParseNumeric extracts the typed numeric value from already-extracted
// node text, following the XML Schema double lexical space
// (leading/trailing space trimmed). It is the string-taking variant of
// Document.NumericValue for callers that have already extracted the
// subtree text and must not pay a second tree walk.
func ParseNumeric(s string) (v float64, ok bool) {
	s = strings.TrimSpace(s)
	if s == "" || !NumericLead(s[0]) {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

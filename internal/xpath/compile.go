package xpath

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xixa/internal/xmltree"
)

// This file compiles a path with predicates into the form a table scan
// runs. Eval walks the path once per document, building a context set
// per step. A Program resolves against the table's path dictionary, once
// per table, everything that does not depend on the document, and then
// answers a document by scanning its PathIDs — no context sets, no
// string comparison of names, no allocation.
//
// A Program is compiled from a path's shape: literals are left out and
// bound per statement (Matcher), so a table holds one Program per query
// template however many parameter values arrive.
//
// Each path of the program — the spine and every predicate's relative
// path — owns one table over the dictionary: for PathID p, bit d of
// match[p] says that the path, started at p's ancestor at depth d,
// selects p (depth 0 is the document node). Which nodes a path selects
// from a context node at level d is then a scan of the context's
// subtree range for PathIDs with bit d set. The bit is computed from
// the labels of p below depth d, so it is relative to the context by
// construction. A test of rooted PathIDs alone would not be: the rooted
// pattern of //x[x/y=1] accepts /x/x/x/y, that PathID lies in the
// subtree range of the outermost x, and yet x/y holds only from the x
// directly above the y. Rooted patterns (PathMatcher) serve where they
// are sound, as a necessary condition: a document that carries no
// PathID a required pattern accepts is rejected from its path summary
// before a node is visited.
//
// Predicates inside a path (on the spine's steps, or nested) are not in
// the tables: a node the table selects is then confirmed by running the
// path's NFA down its ancestor chain, evaluating each step's predicates
// at the ancestor the step lands on.
//
// Which nodes a context's scan hands on to that confirmation and to the
// comparison is fixed by the document's PathIDs, kinds and subtree ends
// — its shape (xmltree.Document.Shape) — not by its values. A Matcher
// therefore records those nodes once per (shape, path, context) as a
// visit list, and a later document of the shape iterates the list
// instead of walking its nodes (visits.go): a table whose documents
// repeat a few shapes pays for its structure once per shape per
// statement.

// maxProgramSteps bounds the name tests of one program (the spine's and
// every predicate's): each owns one bit of a PathID's label mask.
const maxProgramSteps = 64

// maxProgramDepth bounds the depth of the dictionary paths a program
// answers: context depths are bits of a 64-bit mask.
const maxProgramDepth = 63

// progPath is one compiled path: the spine or a predicate's relative
// path. An empty path (predicates only) selects its context node.
type progPath struct {
	steps    []progStep
	table    int  // index of the path's tables in progTables
	hasPreds bool // some step carries predicates: a selected node needs its chain confirmed
}

// progStep is one compiled location step.
type progStep struct {
	desc  bool   // descendant axis: the state before this step survives any label
	label uint64 // this step's bit in progTables.labels
	preds []progPred
	memo  int // with preds: the step's slot in Matcher.memo
}

// progPred is one compiled predicate. Its literal is the lit'th of the
// bound statement.
type progPred struct {
	path progPath
	op   CmpOp
	lit  int
}

// Program is the compiled shape of one path against one path
// dictionary. It is safe for concurrent use; the per-PathID tables
// follow the dictionary as it grows.
type Program struct {
	dict     *xmltree.PathDict
	relative bool // the path starts at the root element, not above it
	spine    progPath
	tests    []Step // name test of each label bit
	// paths lists the non-empty paths by table index; required[i] is
	// the rooted linear pattern a document must carry a path of for
	// paths[i] to select anything.
	paths    []*progPath
	required []*PathMatcher
	nlits    int
	nmemo    int

	mu  sync.Mutex // serializes table growth
	tab atomic.Pointer[progTables]
}

// progTables is everything a Program derives from the dictionary, for
// the PathIDs below len(labels). A grown dictionary gets a new value;
// the per-PathID slices only ever append (below is rebuilt), so an
// older value stays valid for readers that still hold it.
type progTables struct {
	labels []uint64 // per PathID: the name tests its last label passes
	depth  []uint8  // per PathID: number of labels
	deep   bool     // some path is deeper than maxProgramDepth: use Eval

	match [][]uint64 // per path, per PathID: context depths the path selects the PathID from
	below [][]uint64 // per path, per PathID: match of the PathID's proper descendants, OR-ed

	states [][]MatchState    // per required pattern: NFA state per PathID
	need   []xmltree.PathSig // per required pattern: the PathIDs it accepts
}

// compilable reports whether the path fits the compiled form: every
// rooted pattern within the NFA's state budget, the name tests within
// one label mask, and every predicate path relative (the parser admits
// no other; EvalFrom evaluates an absolute one from the document node).
func compilable(p Path) bool {
	total := 0
	var walk func(steps []Step, depth int) bool
	walk = func(steps []Step, depth int) bool {
		total += len(steps)
		if depth+len(steps) > maxSteps || total > maxProgramSteps {
			return false
		}
		for i, st := range steps {
			for _, pr := range st.Preds {
				if !pr.Rel.Relative || !walk(pr.Rel.Steps, depth+i+1) {
					return false
				}
			}
		}
		return true
	}
	depth := 0
	if p.Relative {
		depth = 1 // the root element stands in front
	}
	return walk(p.Steps, depth)
}

// CompileFor compiles the shape of p against a table's path dictionary.
// It returns nil when the path is beyond the compiled form's step
// budget (see CompilablePattern); such paths are evaluated with Eval.
func CompileFor(dict *xmltree.PathDict, p Path) *Program {
	if dict == nil || !compilable(p) {
		return nil
	}
	prog := &Program{dict: dict, relative: p.Relative}
	var prefix []Step
	if p.Relative {
		prefix = []Step{{Axis: Child, Test: "*"}}
	}
	prog.compilePath(&prog.spine, prefix, p.Steps)
	return prog
}

// compilePath compiles one path into dst. prefix is the rooted linear
// pattern its context is reached by; prefix plus the path itself is the
// pattern a document must carry for the path to select anything.
func (p *Program) compilePath(dst *progPath, prefix []Step, steps []Step) {
	rooted := make([]Step, len(prefix), len(prefix)+len(steps))
	copy(rooted, prefix)
	dst.steps = make([]progStep, len(steps))
	for i, st := range steps {
		rooted = append(rooted, Step{Axis: st.Axis, Test: st.Test})
		ps := &dst.steps[i]
		ps.desc, ps.label = st.Axis == Descendant, 1<<uint(len(p.tests))
		p.tests = append(p.tests, Step{Test: st.Test})
		if len(st.Preds) > 0 {
			dst.hasPreds = true
			ps.memo = p.nmemo
			p.nmemo++
			ps.preds = make([]progPred, len(st.Preds))
		}
		for j, pr := range st.Preds {
			cp := &ps.preds[j]
			cp.op, cp.lit = pr.Op, -1
			if pr.Op != OpNone {
				cp.lit = p.nlits
				p.nlits++
			}
			p.compilePath(&cp.path, rooted, pr.Rel.Steps)
		}
	}
	if len(steps) > 0 {
		dst.table = len(p.paths)
		p.paths = append(p.paths, dst)
		p.required = append(p.required, NewPathMatcher(Path{Steps: rooted}))
	}
}

// tables returns tables covering every PathID the dictionary holds now.
func (p *Program) tables() *progTables {
	t := p.tab.Load()
	if t != nil && len(t.labels) == p.dict.Len() {
		return t
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := p.dict.Snapshot()
	t = p.tab.Load()
	if t == nil {
		n := len(p.paths)
		t = &progTables{match: make([][]uint64, n), below: make([][]uint64, n), states: make([][]MatchState, n), need: make([]xmltree.PathSig, n)}
	}
	if len(t.labels) >= len(entries) {
		return t
	}
	nt := p.extend(t, entries)
	p.tab.Store(nt)
	return nt
}

// extend builds the tables for entries from those for a prefix of them.
func (p *Program) extend(t *progTables, entries []xmltree.PathEntry) *progTables {
	old, n := len(t.labels), len(entries)
	nt := &progTables{
		labels: t.labels, depth: t.depth, deep: t.deep,
		match: make([][]uint64, len(p.paths)), below: make([][]uint64, len(p.paths)),
		states: make([][]MatchState, len(p.paths)), need: append([]xmltree.PathSig(nil), t.need...),
	}
	for _, e := range entries[old:] {
		var mask uint64
		for s, test := range p.tests {
			if test.MatchesLabel(e.Label) {
				mask |= 1 << uint(s)
			}
		}
		d := 1
		if e.Parent >= 0 {
			d += int(nt.depth[e.Parent])
		}
		if d > maxProgramDepth {
			nt.deep, d = true, maxProgramDepth
		}
		nt.labels = append(nt.labels, mask)
		nt.depth = append(nt.depth, uint8(d))
	}
	if nt.deep {
		return nt // every document goes to Eval; the other tables stay unused
	}
	for c, pm := range p.required {
		nt.states[c] = pm.ExtendStates(entries, t.states[c])
		nt.match[c] = t.match[c]
		nt.below[c] = append(make([]uint64, 0, n), t.below[c]...)[:n]
	}
	var chain []uint64 // label masks of one PathID's labels, root first
	for id := old; id < n; id++ {
		chain = chain[:0]
		for a := xmltree.PathID(id); a >= 0; a = entries[a].Parent {
			chain = append(chain, nt.labels[a])
		}
		slices.Reverse(chain)
		for c, path := range p.paths {
			if p.required[c].Matched(nt.states[c][id]) {
				nt.need[c].Add(xmltree.PathID(id))
			}
			var m uint64
			for d := range chain {
				if path.selects(chain[d:]) {
					m |= 1 << uint(d)
				}
			}
			nt.match[c] = append(nt.match[c], m)
			if m != 0 {
				for a := entries[id].Parent; a >= 0; a = entries[a].Parent {
					nt.below[c][a] |= m
				}
			}
		}
	}
	return nt
}

// selects runs the path's NFA, predicates aside, over the label masks
// of the nodes below a context down to a candidate, and reports whether
// the path ends exactly on the candidate. State bit i: steps[:i] taken.
func (path *progPath) selects(labels []uint64) bool {
	accept := uint32(1) << uint(len(path.steps))
	s := uint32(1)
	for _, lab := range labels {
		var next uint32
		for t := s &^ accept; t != 0; t &= t - 1 {
			i := bits.TrailingZeros32(t)
			if path.steps[i].desc {
				next |= 1 << uint(i)
			}
			if lab&path.steps[i].label != 0 {
				next |= 2 << uint(i)
			}
		}
		if s = next; s == 0 {
			return false
		}
	}
	return s&accept != 0
}

// Matcher is a Program with one statement's literals bound: what a scan
// holds while it visits documents. A Matcher without a program (path
// beyond the step budget) evaluates every document with Eval. It is not
// safe for concurrent use.
type Matcher struct {
	// Visited counts the nodes examined so far, summed over documents:
	// for each document, the nodes up to the furthest one a scan
	// reached — none when the document is rejected from its path
	// summary, those up to the first match when Exists stops early —
	// and every node of a document evaluated with Eval.
	Visited int64

	path  Path
	prog  *Program
	tab   *progTables
	lits  []Value
	memo  []predMemo
	reach xmltree.NodeID // nodes of the current document scanned so far

	// The scan of a document whose shape an earlier document of this
	// matcher had reads the nodes to visit from lists (see scan and
	// visits.go). shape is the current document's shape when it does,
	// NoShape when the document is walked.
	shape    xmltree.ShapeID
	lists    visitLists
	noShapes bool // walk every document (tests compare the two ways)
}

// predMemo remembers a step's latest predicate evaluation: candidates
// arrive in document order, so the ancestors a step lands on repeat from
// one candidate to the next.
type predMemo struct {
	doc  *xmltree.Document
	node xmltree.NodeID
	ok   bool
}

// bind attaches the literals of p, a path of the program's shape.
func (prog *Program) bind(p Path) *Matcher {
	m := &Matcher{path: p, prog: prog, tab: prog.tables(), lits: make([]Value, 0, prog.nlits), memo: make([]predMemo, prog.nmemo)}
	m.lists.shapes = m.lists.few[:0]
	m.lits = appendLiterals(m.lits, p.Steps)
	if len(m.lits) != prog.nlits {
		panic("xpath: bind: path does not have the program's shape: " + p.String())
	}
	return m
}

// appendLiterals collects comparison literals in compilePath's order.
func appendLiterals(dst []Value, steps []Step) []Value {
	for _, st := range steps {
		for _, pr := range st.Preds {
			if pr.Op != OpNone {
				dst = append(dst, pr.Lit)
			}
			dst = appendLiterals(dst, pr.Rel.Steps)
		}
	}
	return dst
}

// compiled reports whether the document can be answered by the program:
// it must carry PathIDs of the program's dictionary (a transaction's
// uncommitted documents and hand-built ones do not). When it can, the
// tables are brought up to the document's newest PathID — a document
// inserted after Bind may carry paths the dictionary did not have then —
// and may reports whether every required pattern has a path in it.
// Both facts depend on the document's PathIDs alone, so a document of a
// shape the matcher has seen takes may from the shape, and is scanned
// through visit lists (m.shape is set). A shape's first document in the
// table is always walked and not recorded: the matcher keeps per-shape
// state only for shapes that repeat.
func (m *Matcher) compiled(doc *xmltree.Document) (ok, may bool) {
	if m.prog == nil || doc.Dict != m.prog.dict || len(doc.PathIDs) != len(doc.Nodes) {
		return false, false
	}
	sig, newest, done := doc.PathSummary()
	if !done {
		return false, false
	}
	if int(newest) >= len(m.tab.labels) {
		m.tab = m.prog.tables()
		m.lists.reset() // built against the old tables
	}
	if m.tab.deep {
		return false, false
	}
	m.shape = xmltree.NoShape
	s := doc.Shape()
	if s == xmltree.NoShape || !doc.RepeatsShape() || m.noShapes {
		return true, m.carries(sig)
	}
	if int(s) >= len(m.lists.shapes) {
		n := max(int(s)+1, 2*len(m.lists.shapes), len(m.lists.few))
		m.lists.shapes = append(m.lists.shapes, make([]uint8, n-len(m.lists.shapes))...)
	}
	f := m.lists.shapes[s]
	if f&shapeSeen == 0 {
		may = m.carries(sig)
		if f = shapeSeen; may {
			f |= shapeMay
		}
		m.lists.shapes[s] = f
		return true, may
	}
	m.shape = s
	return true, f&shapeMay != 0
}

// carries reports whether a document of the PathID set sig has a path
// of every required pattern.
func (m *Matcher) carries(sig *xmltree.PathSig) bool {
	for i := range m.tab.need {
		if !sig.Intersects(&m.tab.need[i]) {
			return false
		}
	}
	return true
}

// Exists reports whether the path selects any node of the document,
// stopping at the first.
func (m *Matcher) Exists(doc *xmltree.Document) bool {
	ok, may := m.compiled(doc)
	if !ok {
		m.Visited += int64(doc.Len())
		return len(Eval(doc, m.path)) > 0
	}
	return may && m.top(doc, nil)
}

// Select appends the nodes the path selects to dst, in document order —
// the node IDs Eval returns.
func (m *Matcher) Select(doc *xmltree.Document, dst []xmltree.NodeID) []xmltree.NodeID {
	ok, may := m.compiled(doc)
	if !ok {
		m.Visited += int64(doc.Len())
		return append(dst, Eval(doc, m.path)...)
	}
	if may {
		m.top(doc, &dst)
	}
	return dst
}

// top scans for the spine from the document node, or from the root
// element for a relative path.
func (m *Matcher) top(doc *xmltree.Document, dst *[]xmltree.NodeID) bool {
	if len(doc.Nodes) == 0 {
		return false
	}
	var found bool
	m.reach = 0
	switch {
	case len(m.prog.spine.steps) == 0:
		// "/" selects nothing, "." the root element.
		if m.prog.relative && dst != nil {
			*dst = append(*dst, 0)
		}
		found = m.prog.relative
	case m.prog.relative:
		found = m.scan(doc, &m.prog.spine, 0, nil, dst)
	default:
		found = m.scan(doc, &m.prog.spine, -1, nil, dst)
	}
	m.Visited += int64(m.reach)
	return found
}

// scan looks through the subtree of the context node ctx (-1 for the
// document node) for the nodes the path selects from it. For
// a predicate's path (pred non-nil) it returns true at the first one
// that satisfies the comparison; for the spine it appends each to dst,
// or with no dst returns true at the first. It reports whether any node
// was selected.
//
// The loop reads the document's PathIDs and its EndID column, and a
// node only for a selected one: a node whose below bit is clear has no
// selectable descendant, so the scan jumps past its subtree, hit or
// miss. That also steps over the text children of such a hit; a text
// node (which carries its parent's PathID) is reached only under a node
// whose below bit is set, so only there is the kind checked.
//
// Which nodes the loop goes on to confirm and compare depends on the
// PathIDs, kinds and ends alone, so it is the same for every document
// of one shape: a document whose shape the matcher has scanned before
// iterates that visit list instead (build makes it on the shape's
// second document), and confirms and compares the same nodes
// in the same order. The list also keeps the context's subtree end and
// level, so such a document's PathIDs and ends are not read at all.
func (m *Matcher) scan(doc *xmltree.Document, path *progPath, ctx xmltree.NodeID, pred *progPred, dst *[]xmltree.NodeID) bool {
	found := false
	var to xmltree.NodeID
	if m.shape != xmltree.NoShape {
		sp := m.visits(doc, path, ctx)
		for _, j := range m.lists.arena[sp.off : sp.off+sp.n] {
			if !path.hasPreds || m.confirm(doc, path, sp.level, j) {
				switch {
				case pred != nil:
					if pred.op == OpNone || CompareNodeValue(doc, j, pred.op, m.lits[pred.lit]) {
						m.reached(j)
						return true
					}
				case dst == nil:
					m.reached(j)
					return true
				default:
					*dst = append(*dst, j)
					found = true
				}
			}
		}
		to = sp.to
	} else {
		from, end, ctxLevel := m.context(doc, ctx)
		to = end
		match, below := m.tab.match[path.table], m.tab.below[path.table]
		pids, ends := doc.PathIDs[:to+1], doc.Ends()[:to+1]
		ctx := uint(ctxLevel)
		for j := from; j <= to; j++ {
			pid := pids[j]
			deep := below[pid]>>ctx&1 != 0
			if match[pid]>>ctx&1 == 0 {
				if !deep {
					j = ends[j]
				}
				continue
			}
			if deep && doc.Nodes[j].Kind == xmltree.Text {
				continue
			}
			if !path.hasPreds || m.confirm(doc, path, ctxLevel, j) {
				switch {
				case pred != nil:
					if pred.op == OpNone || CompareNodeValue(doc, j, pred.op, m.lits[pred.lit]) {
						m.reached(j)
						return true
					}
				case dst == nil:
					m.reached(j)
					return true
				default:
					*dst = append(*dst, j)
					found = true
				}
			}
			if !deep {
				j = ends[j] // nothing under this node can be selected
			}
		}
	}
	m.reached(to)
	return found
}

func (m *Matcher) reached(j xmltree.NodeID) {
	if j >= m.reach {
		m.reach = j + 1
	}
}

// confirm runs the path's NFA with its predicates down the chain of
// nodes from the context (at ctxLevel, exclusive) to id, which the
// path's table already selects: a step is taken at an ancestor when its
// label passes and its predicates hold there.
func (m *Matcher) confirm(doc *xmltree.Document, path *progPath, ctxLevel int32, id xmltree.NodeID) bool {
	steps := path.steps
	if len(steps) == 1 {
		return m.holds(doc, id, &steps[0]) // its one step can only land on id
	}
	var chainBuf [16]xmltree.NodeID
	chain := chainBuf[:]
	if k := int(doc.Nodes[id].Level - ctxLevel); k <= len(chain) {
		chain = chain[:k]
	} else {
		chain = make([]xmltree.NodeID, k)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i] = id
		id = doc.Nodes[id].Parent
	}
	accept := uint32(1) << uint(len(steps))
	s := uint32(1)
	for _, id := range chain {
		lab := m.tab.labels[doc.PathIDs[id]]
		var next uint32
		for t := s &^ accept; t != 0; t &= t - 1 {
			b := bits.TrailingZeros32(t)
			st := &steps[b]
			if st.desc {
				next |= 1 << uint(b)
			}
			if lab&st.label != 0 && (st.preds == nil || m.holds(doc, id, st)) {
				next |= 2 << uint(b)
			}
		}
		if s = next; s == 0 {
			return false
		}
	}
	return s&accept != 0
}

// holds reports whether every predicate of the step holds at the node.
// The context's subtree end and level come from the EndID column and the
// depth of its PathID.
func (m *Matcher) holds(doc *xmltree.Document, id xmltree.NodeID, st *progStep) bool {
	memo := &m.memo[st.memo]
	if memo.doc == doc && memo.node == id {
		return memo.ok
	}
	ok := true
	for i := range st.preds {
		pr := &st.preds[i]
		if len(pr.path.steps) == 0 {
			ok = pr.op == OpNone || CompareNodeValue(doc, id, pr.op, m.lits[pr.lit])
		} else {
			ok = m.scan(doc, &pr.path, id, pr, nil)
		}
		if !ok {
			break
		}
	}
	*memo = predMemo{doc: doc, node: id, ok: ok}
	return ok
}

// ProgramCache holds the programs compiled against one table's path
// dictionary, one per path shape. The table owns it, so the programs go
// when the table does. It is safe for concurrent use.
type ProgramCache struct {
	dict  *xmltree.PathDict
	mu    sync.RWMutex
	progs map[string]*Program
}

// NewProgramCache returns an empty cache for paths over documents of
// the dictionary.
func NewProgramCache(dict *xmltree.PathDict) *ProgramCache {
	return &ProgramCache{dict: dict}
}

// maxCachedPrograms bounds the cache for clients that generate path
// shapes without end; at the bound it starts over (a program costs one
// pass over the dictionary to rebuild).
const maxCachedPrograms = 1024

// Bind returns a matcher for p, compiling p's shape on first use.
func (c *ProgramCache) Bind(p Path) *Matcher {
	shape := shapeOf(p)
	c.mu.RLock()
	prog := c.progs[shape]
	c.mu.RUnlock()
	if prog == nil {
		if prog = CompileFor(c.dict, p); prog == nil {
			return &Matcher{path: p} // beyond the step budget: Eval
		}
		c.mu.Lock()
		if cached := c.progs[shape]; cached != nil {
			prog = cached
		} else {
			if c.progs == nil || len(c.progs) >= maxCachedPrograms {
				c.progs = make(map[string]*Program)
			}
			c.progs[shape] = prog
		}
		c.mu.Unlock()
	}
	return prog.bind(p)
}

// shapeOf renders a path with each literal reduced to its kind: two
// paths share a shape exactly when they compile to the same Program.
func shapeOf(p Path) string {
	var sb strings.Builder
	if p.Relative {
		sb.WriteByte('.')
	}
	writeShape(&sb, p.Steps)
	return sb.String()
}

func writeShape(sb *strings.Builder, steps []Step) {
	for _, st := range steps {
		sb.WriteString(st.Axis.String())
		sb.WriteString(st.Test)
		for _, pr := range st.Preds {
			sb.WriteByte('[')
			writeShape(sb, pr.Rel.Steps)
			sb.WriteString(pr.Op.String()) // the literal is not part of the shape
			sb.WriteByte(']')
		}
	}
}

package xindex

import (
	"runtime/debug"
	"strings"
	"testing"

	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xstats"
)

// chainDoc builds a document of the given nesting depth: depth nested
// <n> elements with a single text payload at the bottom.
func chainDoc(depth int) *xmltree.Document {
	b := xmltree.NewBuilder()
	for i := 0; i < depth; i++ {
		b.Begin("n")
	}
	b.Text("payload")
	for i := 0; i < depth; i++ {
		b.End()
	}
	return b.Document()
}

// TestDeepDocumentNoStackOverflow drives a 50k+-level document through
// the layers that historically recursed per tree level — LabelPath, the
// XML parser, path interning, pattern evaluation, and index building —
// under a reduced goroutine stack cap, so any reintroduced per-level
// recursion dies instead of silently relying on Go's default 1 GB
// stack ceiling.
func TestDeepDocumentNoStackOverflow(t *testing.T) {
	const depth = 50_001
	old := debug.SetMaxStack(8 << 20)
	defer debug.SetMaxStack(old)

	done := make(chan struct{})
	go func() {
		defer close(done)

		doc := chainDoc(depth)
		if doc.Len() != depth+1 {
			t.Errorf("chain doc has %d nodes, want %d", doc.Len(), depth+1)
			return
		}

		// LabelPath of the deepest element: "/n" per level, via the
		// dictionary.
		deepest := xmltree.NodeID(depth - 1)
		if got := doc.LabelPath(deepest); len(got) != 2*depth {
			t.Errorf("LabelPath(deepest) has length %d, want %d", len(got), 2*depth)
			return
		}
		// The dictionary-less fallback climbs parent links iteratively.
		bare := &xmltree.Document{Nodes: doc.Nodes}
		if got := bare.LabelPath(deepest); len(got) != 2*depth {
			t.Errorf("fallback LabelPath(deepest) has length %d, want %d", len(got), 2*depth)
			return
		}
		if got := doc.TextOf(0); got != "payload" {
			t.Errorf("TextOf(root) = %q", got)
			return
		}

		// The XML parser builds the same tree iteratively.
		var sb strings.Builder
		sb.Grow(8 * depth)
		for i := 0; i < depth; i++ {
			sb.WriteString("<n>")
		}
		sb.WriteString("payload")
		for i := 0; i < depth; i++ {
			sb.WriteString("</n>")
		}
		parsed, err := xmltree.ParseString(sb.String())
		if err != nil {
			t.Errorf("parse deep doc: %v", err)
			return
		}
		if parsed.Len() != depth+1 {
			t.Errorf("parsed deep doc has %d nodes, want %d", parsed.Len(), depth+1)
			return
		}

		// Insert interns the 50k-deep path chain into the table
		// dictionary; index build matches the pattern against the
		// dictionary and scans linearly.
		db, tbl := newTable("DEEP")
		if _, err := db.Load("DEEP", doc); err != nil {
			t.Errorf("load deep doc: %v", err)
			return
		}
		if got := tbl.PathDict().Len(); got != depth {
			t.Errorf("table dictionary has %d paths, want %d", got, depth)
			return
		}
		idx, err := Build(tbl, Definition{
			Table:   "DEEP",
			Pattern: xpath.MustParsePattern("//n"),
			Type:    xpath.StringVal,
		})
		if err != nil {
			t.Errorf("build index on deep table: %v", err)
			return
		}
		if idx.Entries() != depth {
			t.Errorf("deep index has %d entries, want %d", idx.Entries(), depth)
			return
		}
		if n := xpath.Eval(doc, xpath.MustParse("/n//n")); len(n) != depth-1 {
			t.Errorf("Eval(/n//n) matched %d nodes, want %d", len(n), depth-1)
			return
		}
	}()
	<-done
}

// TestDeepDocumentCollect runs the statistics collector over a deeply
// nested chain document. The collector itself is a linear pass with no
// per-level recursion; the depth here is bounded only because the
// TableStats contract materializes the rendered path and label slice of
// every distinct path, which is inherently quadratic on a chain
// document (every level is a distinct path).
func TestDeepDocumentCollect(t *testing.T) {
	const depth = 4_000
	db, tbl := newTable("DEEP")
	insert(t, db, "DEEP", chainDoc(depth))
	ts := xstats.Collect(tbl)
	if len(ts.List) != depth {
		t.Fatalf("collected %d paths, want %d", len(ts.List), depth)
	}
	leaf := "/" + strings.Repeat("n/", depth-1) + "n"
	ps := ts.Paths[leaf]
	if ps == nil {
		t.Fatalf("deepest path missing from synopsis")
	}
	if ps.Count != 1 || ps.ValueBytes != int64(len("payload")) {
		t.Fatalf("deepest path stats = %+v", ps)
	}
	// Every level's element "contains" the payload text.
	root := ts.Paths["/n"]
	if root == nil || root.ValueBytes != int64(len("payload")) {
		t.Fatalf("root path stats = %+v", root)
	}
}

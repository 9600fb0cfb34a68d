package xmltree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

const securityDoc = `
<Security id="1914">
  <Symbol>BCIIPRC</Symbol>
  <Name>BlueChip Industries</Name>
  <Yield>4.75</Yield>
  <SecInfo>
    <StockInformation>
      <Sector>Energy</Sector>
      <Industry>Oil</Industry>
    </StockInformation>
  </SecInfo>
</Security>`

func TestParseBasicShape(t *testing.T) {
	d, err := ParseString(securityDoc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	root := d.Root()
	if root == nil || root.Name != "Security" {
		t.Fatalf("root = %+v, want Security element", root)
	}
	if root.ID != 0 || root.Level != 1 || root.Parent != -1 {
		t.Errorf("root identity = (%d,%d,%d), want (0,1,-1)", root.ID, root.Level, root.Parent)
	}
	if root.EndID != NodeID(d.Len()-1) {
		t.Errorf("root.EndID = %d, want %d (root spans whole doc)", root.EndID, d.Len()-1)
	}
}

func TestParseAttributes(t *testing.T) {
	d := MustParse(securityDoc)
	var attr *Node
	for i := range d.Nodes {
		if d.Nodes[i].Kind == Attribute {
			attr = &d.Nodes[i]
			break
		}
	}
	if attr == nil {
		t.Fatal("no attribute node parsed")
	}
	if attr.Name != "id" || attr.Value != "1914" {
		t.Errorf("attr = %q=%q, want id=1914", attr.Name, attr.Value)
	}
	if got := d.LabelPath(attr.ID); got != "/Security/@id" {
		t.Errorf("LabelPath(attr) = %q, want /Security/@id", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"unbalanced", "<a><b></a>"},
		{"truncated", "<a><b>"},
		{"two roots", "<a/><b/>"},
		{"garbage", "not xml at all <"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestTextOf(t *testing.T) {
	d := MustParse(securityDoc)
	// Find the Yield element.
	var yield NodeID = -1
	for i := range d.Nodes {
		if d.Nodes[i].Kind == Element && d.Nodes[i].Name == "Yield" {
			yield = d.Nodes[i].ID
		}
	}
	if yield < 0 {
		t.Fatal("Yield element not found")
	}
	if got := d.TextOf(yield); got != "4.75" {
		t.Errorf("TextOf(Yield) = %q, want 4.75", got)
	}
	v, ok := d.NumericValue(yield)
	if !ok || v != 4.75 {
		t.Errorf("NumericValue(Yield) = (%v,%v), want (4.75,true)", v, ok)
	}
	// Concatenated subtree text for a composite element.
	root := d.Root()
	if got := d.TextOf(root.ID); !strings.Contains(got, "BCIIPRC") || !strings.Contains(got, "Energy") {
		t.Errorf("TextOf(root) = %q, want concatenation including leaf text", got)
	}
}

func TestNumericValueRejectsNonNumbers(t *testing.T) {
	d := MustParse(`<a><b>hello</b><c></c><d>  42 </d></a>`)
	find := func(name string) NodeID {
		for i := range d.Nodes {
			if d.Nodes[i].Kind == Element && d.Nodes[i].Name == name {
				return d.Nodes[i].ID
			}
		}
		t.Fatalf("element %s not found", name)
		return -1
	}
	if _, ok := d.NumericValue(find("b")); ok {
		t.Error("NumericValue of text should fail")
	}
	if _, ok := d.NumericValue(find("c")); ok {
		t.Error("NumericValue of empty should fail")
	}
	if v, ok := d.NumericValue(find("d")); !ok || v != 42 {
		t.Errorf("NumericValue with padding = (%v,%v), want (42,true)", v, ok)
	}
}

func TestLabelPath(t *testing.T) {
	d := MustParse(securityDoc)
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == Element && n.Name == "Sector" {
			want := "/Security/SecInfo/StockInformation/Sector"
			if got := d.LabelPath(n.ID); got != want {
				t.Errorf("LabelPath(Sector) = %q, want %q", got, want)
			}
		}
	}
}

func TestDescendantInterval(t *testing.T) {
	d := MustParse(securityDoc)
	root := d.Root()
	for i := 1; i < d.Len(); i++ {
		if !d.Nodes[i].IsDescendantOf(root) {
			t.Errorf("node %d should be a descendant of root", i)
		}
	}
	if root.IsDescendantOf(root) {
		t.Error("root must not be its own descendant")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d := MustParse(securityDoc)
	text := SerializeString(d)
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse of serialized output: %v\n%s", err, text)
	}
	if d.Len() != d2.Len() {
		t.Fatalf("round trip node count %d != %d", d.Len(), d2.Len())
	}
	for i := range d.Nodes {
		a, b := &d.Nodes[i], &d2.Nodes[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value || a.Parent != b.Parent {
			t.Fatalf("node %d differs after round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	b := NewBuilder()
	doc := b.Begin("a").Attr("x", `<&"`).Leaf("b", "1 < 2 & 3").End().Document()
	text := SerializeString(doc)
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if got := d2.TextOf(d2.Root().ID); got != "1 < 2 & 3" {
		t.Errorf("escaped text round trip = %q", got)
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	b := NewBuilder()
	built := b.Begin("Security").
		Attr("id", "1914").
		Leaf("Symbol", "BCIIPRC").
		LeafFloat("Yield", 4.75).
		Begin("SecInfo").Begin("StockInformation").Leaf("Sector", "Energy").End().End().
		End().Document()
	parsed := MustParse(`<Security id="1914"><Symbol>BCIIPRC</Symbol><Yield>4.75</Yield>` +
		`<SecInfo><StockInformation><Sector>Energy</Sector></StockInformation></SecInfo></Security>`)
	if built.Len() != parsed.Len() {
		t.Fatalf("node counts differ: built=%d parsed=%d", built.Len(), parsed.Len())
	}
	for i := range built.Nodes {
		a, b := &built.Nodes[i], &parsed.Nodes[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value ||
			a.Parent != b.Parent || a.Level != b.Level || a.EndID != b.EndID {
			t.Fatalf("node %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		})
	}
	expectPanic("unbalanced end", func() { NewBuilder().End() })
	expectPanic("unclosed", func() { NewBuilder().Begin("a").Document() })
	expectPanic("text outside root", func() { NewBuilder().Text("x") })
	expectPanic("two roots", func() { NewBuilder().Begin("a").End().Begin("b") })
}

// randomDoc builds a pseudo-random document with up to maxChildren
// children per node and bounded depth, for property testing.
func randomDoc(r *rand.Rand, depth, maxChildren int) *Document {
	names := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	var gen func(level int)
	gen = func(level int) {
		b.Begin(names[r.Intn(len(names))])
		if r.Intn(3) == 0 {
			b.Attr("k", names[r.Intn(len(names))])
		}
		if level < depth {
			for i := 0; i < r.Intn(maxChildren+1); i++ {
				gen(level + 1)
			}
		}
		if r.Intn(2) == 0 {
			b.Text(names[r.Intn(len(names))])
		}
		b.End()
	}
	gen(0)
	return b.Document()
}

// TestPropertyIntervalEncoding checks the structural invariants of the
// (ID, EndID, Parent, Level) encoding on random documents.
func TestPropertyIntervalEncoding(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r, 4, 3)
		for i := range d.Nodes {
			n := &d.Nodes[i]
			if n.ID != NodeID(i) {
				return false
			}
			if n.EndID < n.ID {
				return false
			}
			// The sibling walk over (ID, EndID] yields exactly the nodes
			// whose parent is n, in order, one level down, each inside
			// n's interval.
			var walked, linked []NodeID
			for c := n.ID + 1; c <= n.EndID; c = d.Nodes[c].EndID + 1 {
				cn := d.Node(c)
				if cn.Level != n.Level+1 || cn.EndID > n.EndID {
					return false
				}
				walked = append(walked, c)
			}
			for j := range d.Nodes {
				if d.Nodes[j].Parent == n.ID {
					linked = append(linked, NodeID(j))
				}
			}
			if !slices.Equal(walked, linked) {
				return false
			}
			// Interval nesting: any node inside (ID, EndID] must have n as ancestor.
			for j := n.ID + 1; j <= n.EndID; j++ {
				m := d.Node(j)
				anc := false
				for p := m.Parent; p >= 0; p = d.Node(p).Parent {
					if p == n.ID {
						anc = true
						break
					}
				}
				if !anc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRoundTrip checks Parse(Serialize(d)) preserves structure on
// random documents.
func TestPropertyRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r, 3, 3)
		d2, err := ParseString(SerializeString(d))
		if err != nil || d.Len() != d2.Len() {
			return false
		}
		for i := range d.Nodes {
			a, b := &d.Nodes[i], &d2.Nodes[i]
			if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStorageBytesMonotone(t *testing.T) {
	small := MustParse(`<a><b>x</b></a>`)
	large := MustParse(`<a><b>x</b><c>yyyyyyyyyy</c><d>z</d></a>`)
	if small.StorageBytes() >= large.StorageBytes() {
		t.Errorf("StorageBytes not monotone: %d >= %d", small.StorageBytes(), large.StorageBytes())
	}
	if small.StorageBytes() <= 0 {
		t.Error("StorageBytes must be positive for nonempty docs")
	}
}

// IsDescendantOf reports whether n lies strictly below a in the tree,
// using the (ID, EndID] interval encoding.
func (n *Node) IsDescendantOf(a *Node) bool {
	return a.ID < n.ID && n.ID <= a.EndID
}

package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

func snapshotDefs() []xindex.Definition {
	return []xindex.Definition{
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal},
	}
}

// mustLoad inserts one document as its own commit and returns its ID.
func mustLoad(t testing.TB, db *storage.Database, table string, doc *xmltree.Document) int64 {
	t.Helper()
	ids, err := db.Load(table, doc)
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// saveImage is SaveCheckpoint into memory.
func saveImage(t testing.TB, db *storage.Database, defs []xindex.Definition, lsn, stamp uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, db, defs, lsn, stamp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripTPoX(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 50, Orders: 80, Customers: 20, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	data := saveImage(t, db, snapshotDefs(), 0, 0)
	db2, defs, _, _, err := LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(defs) != 2 || defs[0].Pattern.String() != "/Security/Symbol" || defs[1].Type != xpath.NumberVal {
		t.Errorf("defs = %v", defs)
	}
	for _, name := range db.TableNames() {
		a, _ := db.Table(name)
		b, err := db2.Table(name)
		if err != nil {
			t.Fatalf("table %s missing after load", name)
		}
		if a.DocCount() != b.DocCount() || a.NodeCount() != b.NodeCount() || a.SizeBytes() != b.SizeBytes() {
			t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", name,
				a.DocCount(), a.NodeCount(), a.SizeBytes(),
				b.DocCount(), b.NodeCount(), b.SizeBytes())
		}
		// Structural equality of every document.
		a.Scan(func(doc *xmltree.Document) bool {
			other, ok := b.Get(doc.DocID)
			if !ok {
				t.Fatalf("%s: doc %d missing", name, doc.DocID)
			}
			if xmltree.SerializeString(doc) != xmltree.SerializeString(other) {
				t.Fatalf("%s: doc %d differs after round trip", name, doc.DocID)
			}
			return true
		})
	}
	// Levels and intervals must be reconstructed correctly: indexes
	// built on the loaded database match ones built on the original.
	for _, def := range snapshotDefs() {
		t1, _ := db.Table(def.Table)
		t2, _ := db2.Table(def.Table)
		i1, err := xindex.Build(t1, def)
		if err != nil {
			t.Fatal(err)
		}
		i2, err := xindex.Build(t2, def)
		if err != nil {
			t.Fatal(err)
		}
		if i1.Entries() != i2.Entries() {
			t.Errorf("%s: index entries %d vs %d after reload", def, i1.Entries(), i2.Entries())
		}
	}
}

func TestRoundTripEmptyDatabase(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("EMPTY")
	db2, defs, _, _, err := LoadCheckpoint(bytes.NewReader(saveImage(t, db, nil, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 0 {
		t.Errorf("defs = %v", defs)
	}
	tbl, err := db2.Table("EMPTY")
	if err != nil || tbl.DocCount() != 0 {
		t.Errorf("empty table not restored: %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("T")
	mustLoad(t, db, "T", xmltree.MustParse(`<a><b>hello</b></a>`))
	// Flip a byte in the middle (document payload region).
	corrupted := saveImage(t, db, nil, 0, 0)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(corrupted)); err == nil {
		t.Error("corrupted image loaded without error")
	}
}

func TestTruncationDetected(t *testing.T) {
	data := tenDocsImage(t)
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncated image (%d bytes) loaded without error", cut)
		}
	}
	// A cut at a frame boundary leaves well-formed frames; the header's
	// counts still catch it.
	for cut := len(imageMagic); cut < len(data); {
		if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("image cut at frame boundary %d loaded without error", cut)
		}
		cut += frameLen + int(binary.LittleEndian.Uint32(data[cut:]))
	}
}

// tenDocsImage is ten one-leaf documents in table T, no definitions.
func tenDocsImage(t testing.TB) []byte {
	db := storage.NewDatabase()
	db.MustCreateTable("T")
	for i := 0; i < 10; i++ {
		mustLoad(t, db, "T", xmltree.MustParse(`<a><b>x</b></a>`))
	}
	return saveImage(t, db, nil, 0, 0)
}

// badMagics are input that is not an image and the retired image
// versions.
var badMagics = []struct{ head, wantErr string }{
	{"NOTADB99 garbage", "bad magic"},
	{"XIXADB1\n\x00\x00", "unsupported image version"},
	{"XIXADB2\n\x00\x00", "unsupported image version"},
	{"XIXADB3\n\x00\x00\x00", "unsupported image version"},
}

// TestBadMagicRejected: input that is not an image, and the retired
// format versions, are rejected by the loader and by the header peek
// alike — the old versions by name.
func TestBadMagicRejected(t *testing.T) {
	for _, tc := range badMagics {
		if _, _, _, _, err := LoadCheckpoint(strings.NewReader(tc.head)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("LoadCheckpoint(%q): %v, want %q", tc.head, err, tc.wantErr)
		}
		if _, err := PeekCheckpointLSN(strings.NewReader(tc.head)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("PeekCheckpointLSN(%q): %v, want %q", tc.head, err, tc.wantErr)
		}
	}
}

// TestRefusesXIXADB4Image: an image in the previous layout (magic,
// uvarint LSN and stamp, tables, definitions, one trailing CRC-32C) is
// refused by its version's name, not read as a corrupt image.
func TestRefusesXIXADB4Image(t *testing.T) {
	old := []byte("XIXADB4\n\x00\x00\x00\x00") // LSN 0, stamp 0, no tables, no definitions
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, crcTable))
	path := filepath.Join(t.TempDir(), "checkpoint.xdb")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	want := `unsupported image version "XIXADB4"`
	if _, _, _, _, err := LoadCheckpointFile(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadCheckpointFile of an XIXADB4 image = %v, want %q", err, want)
	}
	if _, err := PeekCheckpointLSN(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("PeekCheckpointLSN of an XIXADB4 image = %v, want %q", err, want)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.xdb")
	db := storage.NewDatabase()
	db.MustCreateTable("T")
	mustLoad(t, db, "T", xmltree.MustParse(`<a t="1"><b>v</b></a>`))
	if err := SaveCheckpointFile(path, db, snapshotDefs()[:1], 0, 0); err != nil {
		t.Fatal(err)
	}
	db2, defs, _, _, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 {
		t.Errorf("defs = %v", defs)
	}
	tbl2, err := db2.Table("T")
	if err != nil || tbl2.DocCount() != 1 {
		t.Errorf("table not restored")
	}
}

func TestHostileInputsDoNotPanic(t *testing.T) {
	// Fuzz-ish: every one-byte mutation of a valid image, with and
	// without its frame checksums repaired, must return an error or
	// load, never panic or over-allocate.
	db := storage.NewDatabase()
	db.MustCreateTable("T")
	mustLoad(t, db, "T", xmltree.MustParse(`<a><b>v</b></a>`))
	base := saveImage(t, db, nil, 0, 0)
	for i := 0; i < len(base); i += 3 {
		mut := append([]byte(nil), base...)
		mut[i] = 0xFF
		_, _, _, _, _ = LoadCheckpoint(bytes.NewReader(mut))               // must not panic
		_, _, _, _, _ = LoadCheckpoint(bytes.NewReader(fixFrameCRCs(mut))) // nor here
	}
}

// TestDocIDsSurviveRoundTrip asserts an image preserves document
// identities: after a delete the remaining IDs are no longer dense, and
// a save/load cycle must keep them along with the table's nextID, so
// post-load inserts cannot collide with pre-image IDs.
func TestDocIDsSurviveRoundTrip(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	mkDoc := func(sym string) *xmltree.Document {
		return xmltree.NewBuilder().Begin("Doc").Leaf("Sym", sym).End().Document()
	}
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, mustLoad(t, db, "T", mkDoc(strings.Repeat("X", i+1))))
	}
	for _, id := range []int64{ids[0], ids[3]} {
		if _, _, err := db.CommitTx(db.Watermark(), []storage.TxOp{{Table: "T", Kind: storage.TxDelete, DocID: id}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	nextBefore := tbl.NextID()

	db2, _, _, _, err := LoadCheckpoint(bytes.NewReader(saveImage(t, db, nil, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.DocCount() != 4 {
		t.Fatalf("loaded %d docs, want 4", tbl2.DocCount())
	}
	for _, id := range []int64{1, 2, 4, 5} {
		d, ok := tbl2.Get(id)
		if !ok {
			t.Fatalf("doc %d missing after round trip", id)
		}
		if d.DocID != id {
			t.Fatalf("doc under key %d carries DocID %d", id, d.DocID)
		}
		orig, _ := tbl.Get(id)
		if d.Nodes[2].Value != orig.Nodes[2].Value {
			t.Fatalf("doc %d content changed: %q vs %q", id, d.Nodes[2].Value, orig.Nodes[2].Value)
		}
	}
	for _, id := range []int64{0, 3} {
		if _, ok := tbl2.Get(id); ok {
			t.Fatalf("deleted doc %d reappeared", id)
		}
	}
	if tbl2.NextID() != nextBefore {
		t.Fatalf("nextID = %d after load, want %d", tbl2.NextID(), nextBefore)
	}
	if id := mustLoad(t, db2, "T", mkDoc("NEW")); id != nextBefore {
		t.Fatalf("post-load insert assigned %d, want %d", id, nextBefore)
	}
}

func TestCheckpointLSNRoundTrip(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("T")
	mustLoad(t, db, "T", xmltree.MustParse(`<a><b>x</b></a>`))
	for _, lsn := range []uint64{0, 1, 127, 128, 1 << 40} {
		stamp := lsn * 3
		data := saveImage(t, db, snapshotDefs(), lsn, stamp)
		_, defs, got, gotStamp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("lsn %d: %v", lsn, err)
		}
		if got != lsn || gotStamp != stamp {
			t.Fatalf("LSN/stamp round trip: got %d/%d, want %d/%d", got, gotStamp, lsn, stamp)
		}
		if len(defs) != len(snapshotDefs()) {
			t.Fatalf("lsn %d: %d defs, want %d", lsn, len(defs), len(snapshotDefs()))
		}
		if peek, err := PeekCheckpointLSN(bytes.NewReader(data)); err != nil || peek != lsn {
			t.Fatalf("PeekCheckpointLSN = %d (%v), want %d", peek, err, lsn)
		}
	}
}

// TestImageSplitsAtFixedCount: an image's documents go out in commits
// of exactly imageBatch, the last one holding the rest, whatever the
// tables — the one split the loader accepts.
func TestImageSplitsAtFixedCount(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 300, Orders: 100, Customers: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	data := saveImage(t, db, nil, 0, 0)
	var sizes []int
	for off := len(imageMagic); off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		rec, err := DecodePayload(0, data[off+frameLen:off+frameLen+n])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == RecCommit {
			sizes = append(sizes, len(rec.Ops))
		}
		off += frameLen + n
	}
	if want := []int{256, 149}; len(sizes) != len(want) || sizes[0] != want[0] || sizes[1] != want[1] {
		t.Fatalf("commit sizes %v, want %v", sizes, want)
	}
}

// TestCorruptByteRegions flips one byte in each structural region of a
// checkpoint: every flip must fail the load cleanly (CRC mismatch or a
// structural error), never panic, and never return corrupt data.
func TestCorruptByteRegions(t *testing.T) {
	data := regionsImage(t)
	for _, r := range imageRegions(data) {
		t.Run(r.name, func(t *testing.T) {
			mut := append([]byte(nil), data...)
			mut[r.off] ^= 0xFF
			if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip at %d (%s) loaded without error", r.off, r.name)
			}
		})
	}
}

// regionsImage is six SECURITY documents and two definitions at LSN
// 42, stamp 7.
func regionsImage(t testing.TB) []byte {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	for i := 0; i < 6; i++ {
		mustLoad(t, db, "SECURITY", xmltree.MustParse(`<Security><Symbol>AAA</Symbol><Yield>4.5</Yield></Security>`))
	}
	return saveImage(t, db, snapshotDefs(), 42, 7)
}

// imageRegions names one byte offset in each region of a regionsImage:
// the magic, the header frame's checksum, the header's LSN and table
// list, the commit's documents and the last index definition.
func imageRegions(data []byte) []struct {
	name string
	off  int
} {
	hdr := len(imageMagic) // the header frame
	n := len(data)
	return []struct {
		name string
		off  int
	}{
		{"magic", 3},
		{"crc", hdr + 5},
		{"lsn", hdr + frameLen + 1},
		{"table-header", hdr + frameLen + 4},
		{"doc-payload-early", n / 4},
		{"doc-payload-mid", n / 2},
		{"def-region", n - 10},
	}
}

func TestCaptureSidecarRoundTrip(t *testing.T) {
	states := []workload.CaptureState{
		{Raw: `for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s`, Weight: 12.5},
		{Raw: `delete from SECURITY where /Security[Symbol="B"]`, Weight: 0.75},
		{Raw: `insert into SECURITY value <Security><Symbol>C</Symbol></Security>`, Weight: 3},
	}
	path := filepath.Join(t.TempDir(), "cap.sidecar")
	if err := SaveCaptureFile(path, states); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(states) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(states))
	}
	for i := range states {
		if got[i] != states[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], states[i])
		}
	}

	// Corruption, truncation and a trailing frame fail cleanly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		p := filepath.Join(t.TempDir(), "mut.sidecar")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCaptureFile(p)
		return err
	}
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		if load(mut) == nil {
			t.Fatalf("flip at %d loaded without error", off)
		}
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if load(data[:cut]) == nil {
			t.Fatalf("truncation at %d loaded without error", cut)
		}
	}
	if load(append(append([]byte(nil), data...), data[len(imageMagic):]...)) == nil {
		t.Fatal("a sidecar with two records loaded without error")
	}
	// A checkpoint image is not a sidecar, nor the other way round.
	if load(regionsImage(t)) == nil {
		t.Fatal("a checkpoint image loaded as a capture sidecar")
	}
	if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("a capture sidecar loaded as a checkpoint image")
	}
}

func TestEncodeDecodeDoc(t *testing.T) {
	doc := xmltree.MustParse(`<Order id="9"><Cust vip="y">Ann &amp; Bo</Cust><Total>7.25</Total></Order>`)
	got, err := roundTripDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.SerializeString(got) != xmltree.SerializeString(doc) {
		t.Fatalf("doc round trip mismatch:\n got %s\nwant %s",
			xmltree.SerializeString(got), xmltree.SerializeString(doc))
	}
}

// roundTripDoc encodes doc with writeDoc and decodes it back, refusing
// a trailing byte.
func roundTripDoc(doc *xmltree.Document) (*xmltree.Document, error) {
	var buf bytes.Buffer
	writeDoc(&buf, doc)
	r := &byteReader{buf: buf.Bytes()}
	got, err := r.doc()
	if err == nil && r.off != len(r.buf) {
		panic("document decode left bytes behind")
	}
	return got, err
}

// TestDecodeDocRejectsMisplacedParents: in document order a node's
// parent is an element still open before it. Any other link would give
// the node a subtree interval outside its parent's, and children are
// walked through those intervals, so the decoder refuses it.
func TestDecodeDocRejectsMisplacedParents(t *testing.T) {
	el := func(name string, parent xmltree.NodeID) xmltree.Node {
		return xmltree.Node{Kind: xmltree.Element, Name: name, Parent: parent}
	}
	for name, nodes := range map[string][]xmltree.Node{
		"closed element": {el("a", -1), el("b", 0), el("c", 0), el("d", 1)},
		"text parent":    {el("a", -1), {Kind: xmltree.Text, Value: "t", Parent: 0}, el("b", 1)},
		"attribute parent": {el("a", -1), {Kind: xmltree.Attribute, Name: "x", Value: "1", Parent: 0},
			{Kind: xmltree.Text, Value: "t", Parent: 1}},
	} {
		if _, err := roundTripDoc(&xmltree.Document{Nodes: nodes}); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	want := xmltree.MustParse(`<a x="1">t<b><c/>u</b><d y="2"/></a>`)
	got, err := roundTripDoc(want)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.SerializeString(got) != xmltree.SerializeString(want) {
		t.Errorf("round trip: %s, want %s", xmltree.SerializeString(got), xmltree.SerializeString(want))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Errorf("node %d: decoded %+v, parsed %+v", i, got.Nodes[i], want.Nodes[i])
		}
	}
}

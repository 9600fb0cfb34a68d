package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmltree"
)

// FuzzLoadCheckpoint feeds the checkpoint decoder arbitrary bytes. With
// fixCRC set the trailing four bytes are first rewritten to the checksum
// of the rest, so mutations reach the structural checks instead of all
// stopping at the CRC. The decoder must never panic, and an image it
// accepts must load at Watermark() == its stamp and re-save to the same
// bytes: a checkpoint is exactly the committed prefix at its stamp, with
// one encoding. The checked-in corpus (testdata/fuzz) holds the corrupt
// and truncated images of the tests above.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(fuzzImage(f, 2, 3), false)
	f.Add(fuzzImage(f, 0, 0), true)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			data = append([]byte(nil), data...)
			body := len(data) - 4
			binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], crcTable))
		}
		db, defs, lsn, stamp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if w := db.Watermark(); w != stamp {
			t.Fatalf("accepted image stamped %d loads at watermark %d", stamp, w)
		}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, db, defs, lsn, stamp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted image re-saves differently:\n got %x\nwant %x", buf.Bytes(), data)
		}
	})
}

// TestLoadRejectsNonCanonicalImages: each image differs from what
// SaveCheckpoint writes in one field and carries a valid checksum; the
// loader must refuse it, or the re-save property of FuzzLoadCheckpoint
// would not hold.
func TestLoadRejectsNonCanonicalImages(t *testing.T) {
	// image writes magic, lsn 0 and stamp 1 (the lsn spelled by lsnBytes),
	// the tables, the defs, and the checksum; one table "T" holds one
	// document under docID with the given nextID.
	type spec struct {
		lsnBytes      []byte
		names         []string
		nextID, docID uint64
		pattern       string
		kind          byte
		trailing      bool
	}
	image := func(sp spec) []byte {
		var buf bytes.Buffer
		cw := &countingWriter{w: &buf, sum: crc32.New(crcTable)}
		cw.write(magic)
		cw.write(sp.lsnBytes)
		cw.uvarint(1)
		cw.uvarint(uint64(len(sp.names)))
		for _, name := range sp.names {
			cw.str(name)
			if name != "T" {
				cw.uvarint(0)
				cw.uvarint(0)
				continue
			}
			cw.uvarint(sp.nextID)
			cw.uvarint(1)
			cw.uvarint(sp.docID)
			writeDoc(cw, xmltree.MustParse(`<a><b>1</b></a>`))
		}
		cw.uvarint(1)
		cw.str("T")
		cw.str(sp.pattern)
		cw.write([]byte{sp.kind})
		binary.Write(&buf, binary.LittleEndian, cw.sum.Sum32())
		if sp.trailing {
			buf.WriteByte(0)
		}
		return buf.Bytes()
	}
	good := spec{lsnBytes: []byte{0}, names: []string{"S", "T"}, nextID: 3, docID: 2, pattern: "/a/b", kind: 1}
	db, _, _, stamp, err := LoadCheckpoint(bytes.NewReader(image(good)))
	if err != nil {
		t.Fatalf("canonical image refused: %v", err)
	}
	if db.Watermark() != stamp {
		t.Fatalf("canonical image loads at watermark %d, stamp %d", db.Watermark(), stamp)
	}
	for name, mutate := range map[string]func(*spec){
		"non-minimal varint":  func(sp *spec) { sp.lsnBytes = []byte{0x80, 0x00} },
		"tables out of order": func(sp *spec) { sp.names = []string{"T", "S"} },
		"duplicate table":     func(sp *spec) { sp.names = []string{"T", "T"} },
		"doc ID at nextID":    func(sp *spec) { sp.docID = 3 },
		"nextID past int64":   func(sp *spec) { sp.nextID, sp.docID = 1<<63, 0 },
		"pattern spelling":    func(sp *spec) { sp.pattern = " /a/b" },
		"key type byte":       func(sp *spec) { sp.kind = 2 },
		"data after checksum": func(sp *spec) { sp.trailing = true },
	} {
		sp := good
		mutate(&sp)
		if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(image(sp))); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// fuzzImage is a small checkpoint stamped lsn and stamp: TPoX tables
// filled one commit per table, two index definitions, a deleted
// document (IDs are not dense), an empty table, and attribute and
// mixed-content nodes.
func fuzzImage(t testing.TB, lsn, stamp uint64) []byte {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 3, Orders: 2, Customers: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.CommitTx(db.Watermark(), []storage.TxOp{{Table: tpox.TableSecurity, Kind: storage.TxDelete, DocID: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("EMPTY")
	db.MustCreateTable("MIXED")
	mustLoad(t, db, "MIXED", xmltree.MustParse(`<a x="1">t<b/></a>`))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, db, snapshotDefs(), lsn, stamp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
		var buf bytes.Buffer
		if err := EncodeDoc(&buf, &xmltree.Document{Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeDoc(&buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	want := xmltree.MustParse(`<a x="1">t<b><c/>u</b><d y="2"/></a>`)
	var buf bytes.Buffer
	if err := EncodeDoc(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDoc(&buf)
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

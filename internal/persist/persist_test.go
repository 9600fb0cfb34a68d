package persist

import (
	"bytes"
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

func TestRoundTripTPoX(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 50, Orders: 80, Customers: 20, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, snapshotDefs()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	db2, defs, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
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
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	db2, defs, err := LoadDatabase(&buf)
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
	tbl := db.MustCreateTable("T")
	tbl.Insert(xmltree.MustParse(`<a><b>hello</b></a>`))
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle (document payload region).
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, _, err := LoadDatabase(bytes.NewReader(corrupted)); err == nil {
		t.Error("corrupted snapshot loaded without error")
	}
}

func TestTruncationDetected(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	for i := 0; i < 10; i++ {
		tbl.Insert(xmltree.MustParse(`<a><b>x</b></a>`))
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, _, err := LoadDatabase(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) loaded without error", cut)
		}
	}
}

// TestBadMagicRejected: input that is not a snapshot, and the three
// retired format versions, are rejected by the loader and by the header
// peek alike — the old versions by name.
func TestBadMagicRejected(t *testing.T) {
	for _, tc := range []struct{ head, wantErr string }{
		{"NOTADB99 garbage", "bad magic"},
		{"XIXADB1\n\x00\x00", "unsupported snapshot version"},
		{"XIXADB2\n\x00\x00", "unsupported snapshot version"},
		{"XIXADB3\n\x00\x00\x00", "unsupported snapshot version"},
	} {
		if _, _, err := LoadDatabase(strings.NewReader(tc.head)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("LoadDatabase(%q): %v, want %q", tc.head, err, tc.wantErr)
		}
		if _, err := PeekCheckpointLSN(strings.NewReader(tc.head)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("PeekCheckpointLSN(%q): %v, want %q", tc.head, err, tc.wantErr)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.xdb")
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	tbl.Insert(xmltree.MustParse(`<a t="1"><b>v</b></a>`))
	if err := SaveFile(path, db, snapshotDefs()[:1]); err != nil {
		t.Fatal(err)
	}
	db2, defs, err := LoadFile(path)
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
	// Fuzz-ish: random prefixes of a valid snapshot plus mutated
	// headers must return errors, never panic or over-allocate.
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	tbl.Insert(xmltree.MustParse(`<a><b>v</b></a>`))
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	for i := 0; i < len(base); i += 3 {
		mut := append([]byte(nil), base...)
		mut[i] = 0xFF
		_, _, _ = LoadDatabase(bytes.NewReader(mut)) // must not panic
	}
}

// TestDocIDsSurviveRoundTrip asserts the v2 format preserves document
// identities: after a delete the remaining IDs are no longer dense, and
// a save/load cycle must keep them (v1 re-inserted docs, silently
// renumbering everything after a deletion) along with the table's
// nextID, so post-load inserts cannot collide with pre-snapshot IDs.
func TestDocIDsSurviveRoundTrip(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	mkDoc := func(sym string) *xmltree.Document {
		return xmltree.NewBuilder().Begin("Doc").Leaf("Sym", sym).End().Document()
	}
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, tbl.Insert(mkDoc(strings.Repeat("X", i+1))))
	}
	tbl.Delete(ids[0])
	tbl.Delete(ids[3])
	nextBefore := tbl.NextID()

	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	db2, _, err := LoadDatabase(&buf)
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
	if id := tbl2.Insert(mkDoc("NEW")); id != nextBefore {
		t.Fatalf("post-load insert assigned %d, want %d", id, nextBefore)
	}
}

// TestRebuildIndexesWarmStart asserts the catalog half of the format's
// contract: definitions persist, contents rebuild on load, and the
// rebuilt indexes answer probes exactly like the pre-snapshot ones.
func TestRebuildIndexesWarmStart(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 40, Orders: 10, Customers: 5, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(tpox.TableSecurity)
	if err != nil {
		t.Fatal(err)
	}
	var before []*xindex.Index
	for _, def := range snapshotDefs() {
		idx, err := xindex.Build(tbl, def)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, idx)
	}

	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db, snapshotDefs()); err != nil {
		t.Fatal(err)
	}
	db2, defs, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := RebuildIndexes(db2, defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != len(before) {
		t.Fatalf("rebuilt %d indexes, want %d", len(rebuilt), len(before))
	}
	for i := range rebuilt {
		if rebuilt[i].Def.Key() != before[i].Def.Key() {
			t.Fatalf("rebuilt[%d] = %s, want %s", i, rebuilt[i].Def, before[i].Def)
		}
		if rebuilt[i].Entries() != before[i].Entries() {
			t.Fatalf("%s: rebuilt %d entries, had %d", rebuilt[i].Def, rebuilt[i].Entries(), before[i].Entries())
		}
	}

	// Unknown table fails loudly instead of silently skipping.
	if _, err := RebuildIndexes(storage.NewDatabase(), defs); err == nil {
		t.Fatal("RebuildIndexes against empty database succeeded")
	}
}

func TestCheckpointLSNRoundTrip(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("T").Insert(xmltree.MustParse(`<a><b>x</b></a>`))
	for _, lsn := range []uint64{0, 1, 127, 128, 1 << 40} {
		var buf bytes.Buffer
		stamp := lsn * 3
		if err := SaveCheckpoint(&buf, db, snapshotDefs(), lsn, stamp); err != nil {
			t.Fatal(err)
		}
		_, defs, got, gotStamp, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("lsn %d: %v", lsn, err)
		}
		if got != lsn || gotStamp != stamp {
			t.Fatalf("LSN/stamp round trip: got %d/%d, want %d/%d", got, gotStamp, lsn, stamp)
		}
		if len(defs) != len(snapshotDefs()) {
			t.Fatalf("lsn %d: %d defs, want %d", lsn, len(defs), len(snapshotDefs()))
		}
	}
}

// TestCorruptByteRegions flips one byte in each structural region of a
// checkpoint: every flip must fail the load cleanly (CRC mismatch or a
// structural error), never panic, and never return corrupt data.
func TestCorruptByteRegions(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	for i := 0; i < 6; i++ {
		tbl.Insert(xmltree.MustParse(`<Security><Symbol>AAA</Symbol><Yield>4.5</Yield></Security>`))
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, db, snapshotDefs(), 42, 7); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := len(data)
	regions := []struct {
		name string
		off  int
	}{
		{"magic", 3},
		{"lsn", len(magic)},
		{"table-header", len(magic) + 3},
		{"doc-payload-early", n / 4},
		{"doc-payload-mid", n / 2},
		{"def-region", n - 20},
		{"crc", n - 2},
	}
	for _, r := range regions {
		t.Run(r.name, func(t *testing.T) {
			mut := append([]byte(nil), data...)
			mut[r.off] ^= 0xFF
			if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip at %d (%s) loaded without error", r.off, r.name)
			}
		})
	}
}

func TestCaptureSidecarRoundTrip(t *testing.T) {
	states := []workload.CaptureState{
		{Raw: `for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s`, Weight: 12.5},
		{Raw: `delete from SECURITY where /Security[Symbol="B"]`, Weight: 0.75},
		{Raw: `insert into SECURITY value <Security><Symbol>C</Symbol></Security>`, Weight: 3},
	}
	var buf bytes.Buffer
	if err := SaveCapture(&buf, states); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCapture(bytes.NewReader(buf.Bytes()))
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

	// Corruption and truncation fail cleanly.
	data := buf.Bytes()
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		if _, err := LoadCapture(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at %d loaded without error", off)
		}
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, err := LoadCapture(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded without error", cut)
		}
	}

	// File round trip (atomic write path).
	path := filepath.Join(t.TempDir(), "cap.sidecar")
	if err := SaveCaptureFile(path, states); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(states) {
		t.Fatalf("file round trip: %d entries, want %d", len(got2), len(states))
	}
}

func TestEncodeDecodeDoc(t *testing.T) {
	doc := xmltree.MustParse(`<Order id="9"><Cust vip="y">Ann &amp; Bo</Cust><Total>7.25</Total></Order>`)
	var buf bytes.Buffer
	if err := EncodeDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDoc(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.SerializeString(got) != xmltree.SerializeString(doc) {
		t.Fatalf("doc round trip mismatch:\n got %s\nwant %s",
			xmltree.SerializeString(got), xmltree.SerializeString(doc))
	}
}

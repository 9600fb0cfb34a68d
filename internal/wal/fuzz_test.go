package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xmltree"
)

// fuzzCommit encodes a two-op commit (insert, delete) at stamp 5.
func fuzzCommit(t testing.TB) []byte {
	p, err := EncodeCommit([]storage.TxOp{
		{Table: "SECURITY", Kind: storage.TxInsert, DocID: 3, Doc: testDoc(t, 3)},
		{Table: "ORDERS", Kind: storage.TxDelete, DocID: 200},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reencode writes rec back out through the encoders.
func reencode(t *testing.T, rec Record) []byte {
	switch rec.Kind {
	case RecCommit:
		p, err := EncodeCommit(rec.Ops, rec.Stamp)
		if err != nil {
			t.Fatalf("accepted commit does not re-encode: %v", err)
		}
		return p
	case RecIndexCreate:
		return EncodeIndexCreate(rec.Def)
	case RecIndexDrop:
		return EncodeIndexDrop(rec.Def)
	case RecImage:
		return EncodeImage(rec.LSN, rec.Stamp, rec.Tables, rec.Indexes)
	case RecCapture:
		return EncodeCapture(rec.Capture)
	}
	t.Fatalf("accepted record of kind %v", rec.Kind)
	return nil
}

// FuzzDecodePayload feeds the record decoder arbitrary bytes — what a
// follower decodes off the replication stream. The decoder must never
// panic, must never hold more ops than the payload has room for, and
// an accepted payload must re-encode to the same bytes: a record has
// one encoding. The checked-in corpus (testdata/fuzz) holds one-op and
// multi-op commits, index records, truncated payloads and a huge op
// count; the seeds add an image header and a capture record.
func FuzzDecodePayload(f *testing.F) {
	f.Add(fuzzCommit(f))
	f.Add(EncodeIndexCreate(testDef(f)))
	f.Add(EncodeImage(9, 4, []ImageTable{{Name: "EMPTY", NextID: 0}, {Name: "SECURITY", NextID: 300, Docs: 2}}, 1))
	f.Add(EncodeCapture([]workload.CaptureState{{Raw: "for $s in T('d')/a return $s", Weight: 2.5}, {Raw: "", Weight: 0}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodePayload(1, payload)
		if err != nil {
			return
		}
		if len(rec.Ops) > len(payload)/minOpLen {
			t.Fatalf("%d ops decoded from %d bytes", len(rec.Ops), len(payload))
		}
		if got := reencode(t, rec); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, payload)
		}
	})
}

// FuzzReadFrame feeds the frame reader arbitrary bytes under an
// arbitrary payload limit — what a follower reads off the replication
// stream and recovery reads off a torn log. It must never panic, and a
// frame it accepts must be one WriteFrame would write: its payload
// re-encodes to exactly the bytes consumed. The checked-in corpus
// (testdata/fuzz) holds a valid frame, a torn frame, a zero length and
// a length past the limit.
func FuzzReadFrame(f *testing.F) {
	var frame bytes.Buffer
	WriteFrame(&frame, fuzzCommit(f))
	f.Add(frame.Bytes(), uint32(maxRecordLen))
	f.Add(frame.Bytes()[:frame.Len()-1], uint32(maxRecordLen))
	f.Fuzz(func(t *testing.T, data []byte, limit uint32) {
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r, limit)
		if err != nil {
			return
		}
		if uint32(len(payload)) > limit {
			t.Fatalf("accepted a %d-byte payload past the limit %d", len(payload), limit)
		}
		var again bytes.Buffer
		WriteFrame(&again, payload)
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again.Bytes(), consumed)
		}
	})
}

// TestReadFrameAcrossGrowth: payloads at and past the 64 KiB where
// ReadFrame starts growing its buffer read back whole, and each one cut
// a byte short is torn (io.ErrUnexpectedEOF), not accepted or padded.
func TestReadFrameAcrossGrowth(t *testing.T) {
	for _, n := range []int{1 << 16, 1<<16 + 1, 1 << 17, 300_001} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var frame bytes.Buffer
		WriteFrame(&frame, payload)
		got, err := ReadFrame(bytes.NewReader(frame.Bytes()), maxRecordLen)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: err %v, read back %d bytes equal=%v", n, err, len(got), bytes.Equal(got, payload))
		}
		if _, err := ReadFrame(bytes.NewReader(frame.Bytes()[:frame.Len()-1]), maxRecordLen); err != io.ErrUnexpectedEOF {
			t.Fatalf("%d-byte payload cut a byte short: err %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

// TestDecodeRejectsNonCanonicalPayloads: each payload differs from
// what the encoders write in one place; the decoder must refuse it, or
// FuzzDecodePayload's re-encode property would not hold.
func TestDecodeRejectsNonCanonicalPayloads(t *testing.T) {
	good := fuzzCommit(t)
	del := EncodeDocRemove("T", 1, 5) // kind, stamp, count, op kind, table, docID
	withByte := func(p []byte, at int, b ...byte) []byte {
		out := append([]byte(nil), p[:at]...)
		out = append(out, b...)
		return append(out, p[at:]...)
	}
	set := func(p []byte, at int, b byte) []byte {
		out := append([]byte(nil), p...)
		out[at] = b
		return out
	}
	// indexRec spells an index-create record on table "T" by hand.
	indexRec := func(pattern string, vk byte) []byte {
		out := []byte{byte(RecIndexCreate), 1, 'T', byte(len(pattern))}
		return append(append(out, pattern...), vk)
	}
	index := indexRec("/Security/Symbol", 0)
	cases := map[string][]byte{
		"empty":                 nil,
		"unknown record kind":   set(del, 0, 9),
		"truncated stamp":       del[:5],
		"truncated op":          del[:len(del)-1],
		"truncated document":    good[:len(good)-20],
		"zero-op commit":        set(del[:10], 9, 0),
		"huge op count":         append(append([]byte(nil), del[:9]...), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"op count past payload": set(del, 9, 2),
		"non-minimal op count":  withByte(set(del, 9, 0x81), 10, 0x00),
		"non-minimal docID":     withByte(set(del, len(del)-1, 0x81), len(del), 0x00),
		"unknown op kind":       set(del, 10, 7),
		"trailing bytes":        append(append([]byte(nil), good...), 0),
		"index trailing bytes":  append(append([]byte(nil), index...), 0),
		"index value kind":      indexRec("/Security/Symbol", 2),
		"pattern spelling":      indexRec(" /Security/Symbol", 0),
		"pattern overruns":      index[:10],
		"31-step pattern":       indexRec("/Security"+strings.Repeat("/a", 30), 0),
		"relative pattern":      indexRec("Security/Symbol", 0),
		"pattern predicate":     indexRec(`/Security[Symbol="x"]`, 0),
	}
	if _, err := DecodePayload(1, good); err != nil {
		t.Fatalf("canonical commit refused: %v", err)
	}
	if _, err := DecodePayload(1, index); err != nil {
		t.Fatalf("canonical index record refused: %v", err)
	}
	for name, p := range cases {
		if rec, err := DecodePayload(1, p); err == nil {
			t.Errorf("%s: accepted as %+v", name, rec)
		}
	}
}

// TestOpenRefusesOldLogVersion: a log written in the earlier format
// (magic XIXAWAL1, transactions framed by begin/commit records) is
// refused by name, never read as torn or empty.
func TestOpenRefusesOldLogVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeOldLog(t, path)
	if _, _, err := Open(path, Options{Policy: SyncOff}); err == nil || !strings.Contains(err.Error(), "unsupported log version") {
		t.Fatalf("Open of an XIXAWAL1 log = %v, want the unsupported-version error", err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw[:8]) != "XIXAWAL1" {
		t.Fatalf("refused log was modified (err %v)", err)
	}
}

// writeOldLog writes a header-valid XIXAWAL1 log holding one record.
func writeOldLog(t *testing.T, path string) {
	t.Helper()
	var buf [headerLen + frameLen + 1]byte
	copy(buf[:8], "XIXAWAL1")
	binary.LittleEndian.PutUint32(buf[16:20], crc32.Checksum(buf[:16], crcTable))
	binary.LittleEndian.PutUint32(buf[headerLen:], 1)
	buf[headerLen+frameLen] = 2 // an old doc-remove kind byte
	binary.LittleEndian.PutUint32(buf[headerLen+4:], crc32.Checksum(buf[headerLen+frameLen:], crcTable))
	if err := os.WriteFile(path, buf[:], 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadCheckpoint feeds the checkpoint loader arbitrary bytes. With
// fixCRC set every frame's checksum is first rewritten to match its
// payload, so mutations reach the structural checks instead of all
// stopping at a CRC. The loader must never panic, and an image it
// accepts must load at Watermark() == its stamp and re-save to the same
// bytes: a checkpoint is exactly the committed prefix at its stamp, with
// one encoding. The checked-in corpus (testdata/fuzz) holds the corrupt
// and truncated images of image_test.go.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(fuzzImage(f, 2, 3), false)
	f.Add(fuzzImage(f, 0, 0), true)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			data = fixFrameCRCs(data)
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

// fixFrameCRCs returns a copy of an image whose every whole frame
// carries the checksum of its payload.
func fixFrameCRCs(data []byte) []byte {
	data = append([]byte(nil), data...)
	for off := len(imageMagic); len(data)-off >= frameLen; {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > len(data)-off-frameLen {
			break
		}
		end := off + frameLen + n
		binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(data[off+frameLen:end], crcTable))
		off = end
	}
	return data
}

// imageOf frames payloads after the image magic.
func imageOf(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(imageMagic)
	for _, p := range payloads {
		WriteFrame(&buf, p)
	}
	return buf.Bytes()
}

// TestLoadRejectsNonCanonicalImages: each image differs from what
// SaveCheckpoint writes in one place and carries valid frames; the
// loader must refuse it, or the re-save property of FuzzLoadCheckpoint
// would not hold. The canonical image has tables S (empty) and T (one
// document under ID 2, next ID 3), one commit at stamp 1 and one index
// definition.
func TestLoadRejectsNonCanonicalImages(t *testing.T) {
	tables := []ImageTable{{Name: "S"}, {Name: "T", NextID: 3, Docs: 1}}
	header := EncodeImage(0, 1, tables, 1)
	doc := func(table string, id int64) storage.TxOp {
		d := xmltree.MustParse(`<a><b>1</b></a>`)
		d.DocID = id
		return storage.TxOp{Table: table, Kind: storage.TxInsert, DocID: id, Doc: d}
	}
	commit := func(stamp uint64, ops ...storage.TxOp) []byte {
		p, err := EncodeCommit(ops, stamp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	def := func(pattern string, kind byte) []byte {
		out := []byte{byte(RecIndexCreate), 1, 'T', byte(len(pattern))}
		return append(append(out, pattern...), kind)
	}
	docs := commit(1, doc("T", 2))
	index := def("/a/b", 1)
	good := imageOf(header, docs, index)
	db, _, _, stamp, err := LoadCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("canonical image refused: %v", err)
	}
	if db.Watermark() != stamp {
		t.Fatalf("canonical image loads at watermark %d, stamp %d", db.Watermark(), stamp)
	}
	twoDocs := []ImageTable{{Name: "S"}, {Name: "T", NextID: 3, Docs: 2}}
	withTables := func(tables []ImageTable) []byte { return EncodeImage(0, 1, tables, 1) }
	nonMinimal := append([]byte{byte(RecImage), 0x80}, header[1:]...) // LSN 0 spelled in two bytes
	// T's next ID is 1<<63, in a ten-byte uvarint.
	pastInt64 := []byte{byte(RecImage), 0, 1, 2, 1, 'S', 0, 0, 1, 'T', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 1}
	for name, image := range map[string][]byte{
		"header missing":       imageOf(docs, index),
		"header not first":     imageOf(docs, header, index),
		"header repeated":      imageOf(header, header, docs, index),
		"no frames":            imageOf(),
		"commit at stamp 2":    imageOf(header, commit(2, doc("T", 2)), index),
		"replace op":           imageOf(header, commit(1, storage.TxOp{Table: "T", Kind: storage.TxReplace, DocID: 2, Doc: doc("T", 2).Doc}), index),
		"delete op":            imageOf(header, commit(1, doc("T", 2), storage.TxOp{Table: "T", Kind: storage.TxDelete, DocID: 1}), index),
		"table not in header":  imageOf(header, commit(1, doc("U", 2)), index),
		"tables out of order":  imageOf(withTables([]ImageTable{{Name: "S", NextID: 1, Docs: 1}, {Name: "T", NextID: 3, Docs: 1}}), commit(1, doc("T", 2), doc("S", 0)), index),
		"header out of order":  imageOf(withTables([]ImageTable{{Name: "T", NextID: 3, Docs: 1}, {Name: "S"}}), docs, index),
		"duplicate table":      imageOf(withTables([]ImageTable{{Name: "T", NextID: 3}, {Name: "T", NextID: 3, Docs: 1}}), docs, index),
		"doc ID at nextID":     imageOf(header, commit(1, doc("T", 3)), index),
		"duplicate doc ID":     imageOf(withTables(twoDocs), commit(1, doc("T", 2), doc("T", 2)), index),
		"nextID past int64":    imageOf(pastInt64, docs, index),
		"split not at 256":     imageOf(withTables(twoDocs), commit(1, doc("T", 1)), commit(1, doc("T", 2)), index),
		"fewer docs than said": imageOf(withTables(twoDocs), docs, index),
		"more docs than said":  imageOf(header, commit(1, doc("T", 1), doc("T", 2)), index),
		"commit after index":   imageOf(header, index, docs),
		"index count":          imageOf(header, docs, index, index),
		"index drop":           imageOf(header, docs, index, append([]byte{byte(RecIndexDrop)}, index[1:]...)),
		"capture record":       imageOf(header, docs, index, EncodeCapture(nil)),
		"non-minimal varint":   imageOf(nonMinimal, docs, index),
		"pattern spelling":     imageOf(header, docs, def(" /a/b", 1)),
		"key type byte":        imageOf(header, docs, def("/a/b", 2)),
		"trailing partial":     append(append([]byte(nil), good...), 0),
		"trailing frame head":  good[:len(good)-1],
	} {
		if _, _, _, _, err := LoadCheckpoint(bytes.NewReader(image)); err == nil {
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
	return saveImage(t, db, snapshotDefs(), lsn, stamp)
}

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
// count.
func FuzzDecodePayload(f *testing.F) {
	f.Add(fuzzCommit(f))
	f.Add(EncodeIndexCreate(testDef(f)))
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

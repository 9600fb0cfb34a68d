package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"xixa/internal/persist"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// RecKind discriminates log records: the three operations of a
// committed write set (storage.TxOp insert, replace, delete), the
// frame markers that keep a multi-operation write set atomic, and the
// catalog's index definition lifecycle.
type RecKind uint8

const (
	// RecDocInsert carries a full document entering a table (insert,
	// or the re-add half of a copy-on-write update).
	RecDocInsert RecKind = iota + 1
	// RecDocRemove carries a document ID leaving a table.
	RecDocRemove
	// RecIndexCreate and RecIndexDrop carry an index definition
	// entering or leaving the materialized catalog.
	RecIndexCreate
	RecIndexDrop
	// RecDocReplace carries a copy-on-write replacement (the engine's
	// UPDATE path) as ONE record: remove of the pre-image and insert
	// of the post-image under the same ID, applied atomically on
	// replay. Logging the halves as two records would let a crash tear
	// them apart — recovery would then delete a committed document and
	// materialize a state that never existed in memory.
	RecDocReplace
	// RecTxnBegin and RecTxnCommit frame a multi-operation transaction:
	// the document records between a begin and its matching commit
	// (same transaction ID) apply atomically on replay, and a begin
	// with no commit before the log ends is discarded — the crash hit
	// before the transaction's records were durable, so none of its
	// effects may survive. Single-operation transactions are logged as
	// a bare document record (self-framing; torn trailing records are
	// already dropped by the frame CRC).
	RecTxnBegin
	RecTxnCommit
)

func (k RecKind) String() string {
	switch k {
	case RecDocInsert:
		return "doc-insert"
	case RecDocRemove:
		return "doc-remove"
	case RecIndexCreate:
		return "index-create"
	case RecIndexDrop:
		return "index-drop"
	case RecDocReplace:
		return "doc-replace"
	case RecTxnBegin:
		return "txn-begin"
	case RecTxnCommit:
		return "txn-commit"
	}
	return fmt.Sprintf("rec(%d)", uint8(k))
}

// Record is one decoded log record.
type Record struct {
	LSN   uint64
	Kind  RecKind
	Table string
	// Stamp is the MVCC commit stamp of a RecDocInsert, RecDocReplace,
	// RecDocRemove, or RecTxnCommit record. Log order and stamp order
	// may differ for commits on disjoint tables (appends race outside
	// any global lock), so replay applies frames in stamp order, not
	// log order. Commit stamps start at 1, and replay reads a frame's
	// stamp from its commit record (a bare document record's from the
	// record itself): a zero there is a replay error. Zero is only ever
	// seen inside a frame that never committed, which replay discards.
	Stamp uint64
	// DocID identifies the document for RecDocInsert and RecDocRemove.
	DocID int64
	// Doc is the full document payload of a RecDocInsert or
	// RecDocReplace, encoded with the persist node encoding so the
	// snapshot and the log agree on what a document is.
	Doc *xmltree.Document
	// Def is the definition of a RecIndexCreate or RecIndexDrop.
	Def xindex.Definition
	// TxnID identifies the transaction of a RecTxnBegin or
	// RecTxnCommit frame.
	TxnID uint64
}

// payload builders — frame layout per kind:
//
//	doc-insert:   kind, stamp (8B LE), str table, uvarint docID, persist doc encoding
//	doc-replace:  kind, stamp (8B LE), str table, uvarint docID, persist doc encoding
//	doc-remove:   kind, stamp (8B LE), str table, uvarint docID
//	index-*:      kind, str table, str pattern, byte valueKind
//	txn-begin:    kind, uvarint txnID
//	txn-commit:   kind, stamp (8B LE), uvarint txnID
//
// The stamp is a fixed-width field right after the kind byte so a
// transaction can pre-encode its payloads before the commit stamp is
// allocated and patch it in afterwards (PatchStamp).

// stampOffset is where the commit stamp sits in a stamped payload.
const stampOffset = 1

// stamped reports whether a record kind carries a commit stamp.
func stamped(kind RecKind) bool {
	switch kind {
	case RecDocInsert, RecDocReplace, RecDocRemove, RecTxnCommit:
		return true
	}
	return false
}

// PatchStamp writes the commit stamp into a pre-encoded payload. It is
// a no-op for kinds that carry no stamp (txn-begin, index records), so
// a commit can blindly patch its whole payload batch once the stamp is
// allocated.
func PatchStamp(payload []byte, stamp uint64) {
	if len(payload) >= stampOffset+8 && stamped(RecKind(payload[0])) {
		binary.LittleEndian.PutUint64(payload[stampOffset:stampOffset+8], stamp)
	}
}

func putStr(b *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
	b.WriteString(s)
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putStamp(b *bytes.Buffer, stamp uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], stamp)
	b.Write(tmp[:])
}

// Payload encoders: a commit pre-encodes its record payloads outside
// the commit locks, then hands the batch to AppendTxn in one piece
// (after PatchStamp fills the commit stamp in).

func encodeDoc(kind RecKind, table string, doc *xmltree.Document, stamp uint64) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(byte(kind))
	putStamp(&b, stamp)
	putStr(&b, table)
	putUvarint(&b, uint64(doc.DocID))
	if err := persist.EncodeDoc(&b, doc); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// EncodeDocInsert builds the payload of a document (with its assigned
// ID) entering a table at commit stamp stamp.
func EncodeDocInsert(table string, doc *xmltree.Document, stamp uint64) ([]byte, error) {
	return encodeDoc(RecDocInsert, table, doc, stamp)
}

// EncodeDocReplace builds the payload of an atomic replacement: the
// document under doc.DocID swaps to this post-image in one record.
func EncodeDocReplace(table string, doc *xmltree.Document, stamp uint64) ([]byte, error) {
	return encodeDoc(RecDocReplace, table, doc, stamp)
}

// EncodeDocRemove builds the payload of a document leaving a table.
func EncodeDocRemove(table string, docID int64, stamp uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(RecDocRemove))
	putStamp(&b, stamp)
	putStr(&b, table)
	putUvarint(&b, uint64(docID))
	return b.Bytes()
}

// EncodeTxnBegin builds a transaction-begin frame payload. Begin
// records carry no stamp — the frame's commit record does.
func EncodeTxnBegin(txnID uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(RecTxnBegin))
	putUvarint(&b, txnID)
	return b.Bytes()
}

// EncodeTxnCommit builds a transaction-commit frame payload carrying
// the frame's commit stamp.
func EncodeTxnCommit(txnID, stamp uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(RecTxnCommit))
	putStamp(&b, stamp)
	putUvarint(&b, txnID)
	return b.Bytes()
}

// EncodeIndexCreate builds the payload of an index definition entering
// the catalog.
func EncodeIndexCreate(def xindex.Definition) []byte { return encodeIndex(RecIndexCreate, def) }

// EncodeIndexDrop builds the payload of an index definition leaving
// the catalog.
func EncodeIndexDrop(def xindex.Definition) []byte { return encodeIndex(RecIndexDrop, def) }

func encodeIndex(kind RecKind, def xindex.Definition) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(kind))
	putStr(&b, def.Table)
	putStr(&b, def.Pattern.String())
	vk := byte(0)
	if def.Type == xpath.NumberVal {
		vk = 1
	}
	b.WriteByte(vk)
	return b.Bytes()
}

// byteReader reads the scalar prefix of a payload.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("wal: truncated payload")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) stamp() (uint64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, fmt.Errorf("wal: truncated stamp")
	}
	s := binary.LittleEndian.Uint64(r.buf[r.off : r.off+8])
	r.off += 8
	return s, nil
}

func (r *byteReader) str() (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.buf)-r.off) {
		return "", fmt.Errorf("wal: string length %d overruns payload", n)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// DecodePayload decodes a framed record payload carrying LSN lsn — the
// inverse of the Encode helpers, used by replication followers to turn
// a streamed payload back into a replayable Record.
func DecodePayload(lsn uint64, payload []byte) (Record, error) {
	return decodeRecord(lsn, payload)
}

func decodeRecord(lsn uint64, payload []byte) (Record, error) {
	r := &byteReader{buf: payload}
	kb, err := r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	rec := Record{LSN: lsn, Kind: RecKind(kb)}
	if stamped(rec.Kind) {
		if rec.Stamp, err = r.stamp(); err != nil {
			return Record{}, err
		}
	}
	switch rec.Kind {
	case RecDocInsert, RecDocReplace:
		if rec.Table, err = r.str(); err != nil {
			return Record{}, err
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return Record{}, err
		}
		rec.DocID = int64(id)
		doc, err := persist.DecodeDoc(bytes.NewReader(payload[r.off:]))
		if err != nil {
			return Record{}, fmt.Errorf("wal: doc-insert payload: %w", err)
		}
		doc.DocID = rec.DocID
		rec.Doc = doc
	case RecDocRemove:
		if rec.Table, err = r.str(); err != nil {
			return Record{}, err
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return Record{}, err
		}
		rec.DocID = int64(id)
	case RecIndexCreate, RecIndexDrop:
		table, err := r.str()
		if err != nil {
			return Record{}, err
		}
		patText, err := r.str()
		if err != nil {
			return Record{}, err
		}
		pattern, err := xpath.ParsePattern(patText)
		if err != nil {
			return Record{}, fmt.Errorf("wal: index record pattern: %w", err)
		}
		vk, err := r.ReadByte()
		if err != nil {
			return Record{}, err
		}
		kind := xpath.StringVal
		if vk == 1 {
			kind = xpath.NumberVal
		}
		rec.Def = xindex.Definition{Table: table, Pattern: pattern, Type: kind}
	case RecTxnBegin, RecTxnCommit:
		if rec.TxnID, err = binary.ReadUvarint(r); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", kb)
	}
	return rec, nil
}

package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"xixa/internal/persist"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// RecKind discriminates log records: one committed write set, or one
// change to the catalog's index definitions.
type RecKind uint8

const (
	// RecCommit carries a whole committed write set — every insert,
	// replace and delete of one transaction — at its commit stamp. One
	// record per commit makes the commit atomic on replay: the record's
	// CRC either covers all of its operations or a tear drops them all.
	RecCommit RecKind = iota + 1
	// RecIndexCreate and RecIndexDrop carry an index definition
	// entering or leaving the materialized catalog.
	RecIndexCreate
	RecIndexDrop
)

func (k RecKind) String() string {
	switch k {
	case RecCommit:
		return "commit"
	case RecIndexCreate:
		return "index-create"
	case RecIndexDrop:
		return "index-drop"
	}
	return fmt.Sprintf("rec(%d)", uint8(k))
}

// Record is one decoded log record.
type Record struct {
	LSN  uint64
	Kind RecKind
	// Stamp is the MVCC commit stamp of a RecCommit. Log order and
	// stamp order may differ for commits on disjoint tables (appends
	// race outside any global lock), so replay applies commits in
	// stamp order, not log order. Commit stamps start at 1: a zero
	// here is a replay error.
	Stamp uint64
	// Ops is the write set of a RecCommit, in commit order, with the
	// document IDs the commit assigned. Insert and replace documents
	// use the persist node encoding, so the snapshot and the log agree
	// on what a document is.
	Ops []storage.TxOp
	// Def is the definition of a RecIndexCreate or RecIndexDrop.
	Def xindex.Definition
}

// Payload layout per kind:
//
//	commit:   kind, stamp (8B LE), uvarint op count, then per op:
//	          op kind (storage.TxOpKind), str table, uvarint docID,
//	          and for insert and replace the persist doc encoding
//	index-*:  kind, str table, str pattern, byte valueKind
//
// The stamp is a fixed-width field right after the kind byte so a
// commit can encode its payload before the commit stamp is allocated
// and patch it in afterwards (PatchStamp). A payload has one encoding:
// the decoder rejects what EncodeCommit and the index encoders would
// not have written.

// stampOffset is where the commit stamp sits in a commit payload.
const stampOffset = 1

// minOpLen is the fewest bytes one commit operation takes (kind, empty
// table, one-byte docID): it bounds the op count a payload can claim.
const minOpLen = 3

// PatchStamp writes the commit stamp into a pre-encoded payload. It is
// a no-op for index records, which carry no stamp.
func PatchStamp(payload []byte, stamp uint64) {
	if len(payload) >= stampOffset+8 && RecKind(payload[0]) == RecCommit {
		binary.LittleEndian.PutUint64(payload[stampOffset:stampOffset+8], stamp)
	}
}

func putStr(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// EncodeCommit builds the payload of one committed write set at commit
// stamp stamp (0 when the stamp is patched in later). A commit prepare
// hook encodes here, before the stamp is allocated, so a write set too
// large for one record fails without burning a stamp.
func EncodeCommit(ops []storage.TxOp, stamp uint64) ([]byte, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("wal: empty commit")
	}
	var b bytes.Buffer
	b.WriteByte(byte(RecCommit))
	var st [8]byte
	binary.LittleEndian.PutUint64(st[:], stamp)
	b.Write(st[:])
	putUvarint(&b, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		b.WriteByte(byte(op.Kind))
		putStr(&b, op.Table)
		putUvarint(&b, uint64(op.DocID))
		switch op.Kind {
		case storage.TxInsert, storage.TxReplace:
			if err := persist.EncodeDoc(&b, op.Doc); err != nil {
				return nil, err
			}
		case storage.TxDelete:
		default:
			return nil, fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
	}
	if b.Len() > maxRecordLen {
		return nil, fmt.Errorf("wal: commit of %d bytes exceeds the %d-byte record limit", b.Len(), maxRecordLen)
	}
	return b.Bytes(), nil
}

// EncodeDocInsert builds the payload of a one-insert commit: doc
// (with its assigned ID) entering table at commit stamp stamp.
func EncodeDocInsert(table string, doc *xmltree.Document, stamp uint64) ([]byte, error) {
	return EncodeCommit([]storage.TxOp{{Table: table, Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc}}, stamp)
}

// EncodeDocReplace builds the payload of a one-replace commit: the
// document under doc.DocID swaps to this post-image.
func EncodeDocReplace(table string, doc *xmltree.Document, stamp uint64) ([]byte, error) {
	return EncodeCommit([]storage.TxOp{{Table: table, Kind: storage.TxReplace, DocID: doc.DocID, Doc: doc}}, stamp)
}

// EncodeDocRemove builds the payload of a one-delete commit. One
// delete has no document to encode, so it cannot fail.
func EncodeDocRemove(table string, docID int64, stamp uint64) []byte {
	p, _ := EncodeCommit([]storage.TxOp{{Table: table, Kind: storage.TxDelete, DocID: docID}}, stamp)
	return p
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

// byteReader reads a payload's fields. Every read is bounded by the
// payload, so corrupt lengths and counts fail instead of allocating.
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

// uvarint reads a minimally encoded uvarint: a multi-byte encoding
// ending in a zero byte has a shorter spelling the encoder would have
// used.
func (r *byteReader) uvarint() (uint64, error) {
	start := r.off
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("wal: bad varint: %w", err)
	}
	if r.off-start > 1 && r.buf[r.off-1] == 0 {
		return 0, fmt.Errorf("wal: non-minimal varint")
	}
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
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

// DecodePayload decodes a record payload carrying LSN lsn — the
// inverse of the Encode helpers. Replication followers use it on
// streamed payloads, which are untrusted bytes: it accepts exactly
// the payloads the encoders write.
func DecodePayload(lsn uint64, payload []byte) (Record, error) {
	r := &byteReader{buf: payload}
	kb, err := r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	rec := Record{LSN: lsn, Kind: RecKind(kb)}
	switch rec.Kind {
	case RecCommit:
		if err := r.commit(&rec); err != nil {
			return Record{}, err
		}
	case RecIndexCreate, RecIndexDrop:
		if rec.Def, err = r.indexDef(); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if r.off != len(payload) {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after %v record", len(payload)-r.off, rec.Kind)
	}
	return rec, nil
}

func (r *byteReader) commit(rec *Record) error {
	if len(r.buf)-r.off < 8 {
		return fmt.Errorf("wal: truncated stamp")
	}
	rec.Stamp = binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 || n > uint64(len(r.buf)-r.off)/minOpLen {
		return fmt.Errorf("wal: commit claims %d ops in %d bytes", n, len(r.buf)-r.off)
	}
	rec.Ops = make([]storage.TxOp, n)
	for i := range rec.Ops {
		op := &rec.Ops[i]
		kb, err := r.ReadByte()
		if err != nil {
			return err
		}
		op.Kind = storage.TxOpKind(kb)
		if op.Table, err = r.str(); err != nil {
			return err
		}
		id, err := r.uvarint()
		if err != nil {
			return err
		}
		op.DocID = int64(id)
		switch op.Kind {
		case storage.TxInsert, storage.TxReplace:
			br := bytes.NewReader(r.buf[r.off:])
			if op.Doc, err = persist.DecodeDoc(br); err != nil {
				return fmt.Errorf("wal: commit op %d document: %w", i, err)
			}
			op.Doc.DocID = op.DocID
			r.off = len(r.buf) - br.Len()
		case storage.TxDelete:
		default:
			return fmt.Errorf("wal: commit op %d: unknown op kind %d", i, kb)
		}
	}
	return nil
}

func (r *byteReader) indexDef() (xindex.Definition, error) {
	table, err := r.str()
	if err != nil {
		return xindex.Definition{}, err
	}
	patText, err := r.str()
	if err != nil {
		return xindex.Definition{}, err
	}
	pattern, err := xpath.ParsePattern(patText)
	if err != nil {
		return xindex.Definition{}, fmt.Errorf("wal: index record pattern: %w", err)
	}
	if pattern.String() != patText {
		return xindex.Definition{}, fmt.Errorf("wal: index pattern %q not in canonical form %q", patText, pattern.String())
	}
	vk, err := r.ReadByte()
	if err != nil {
		return xindex.Definition{}, err
	}
	def := xindex.Definition{Table: table, Pattern: pattern, Type: xpath.StringVal}
	switch vk {
	case 0:
	case 1:
		def.Type = xpath.NumberVal
	default:
		return xindex.Definition{}, fmt.Errorf("wal: bad index value kind %d", vk)
	}
	return def, nil
}

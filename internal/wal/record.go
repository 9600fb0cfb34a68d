package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// RecKind discriminates records: one committed write set, one change
// to the catalog's index definitions, and the two records that only
// files written outside the log hold — a checkpoint image's header and
// a capture sidecar's statements (image.go).
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
	// RecImage heads a checkpoint image, and RecCapture is a capture
	// sidecar's one record (image.go). No log or stream replays either.
	RecImage
	RecCapture
)

var recKindNames = [...]string{RecCommit: "commit", RecIndexCreate: "index-create",
	RecIndexDrop: "index-drop", RecImage: "image", RecCapture: "capture"}

func (k RecKind) String() string {
	if int(k) < len(recKindNames) && recKindNames[k] != "" {
		return recKindNames[k]
	}
	return fmt.Sprintf("rec(%d)", uint8(k))
}

// Record is one decoded record.
type Record struct {
	// LSN is the record's log position; a RecImage carries its own,
	// the log position the image reflects.
	LSN  uint64
	Kind RecKind
	// Stamp is the MVCC commit stamp of a RecCommit, or of the image a
	// RecImage heads. Log order and stamp order may differ for commits
	// on disjoint tables (appends race outside any global lock), so
	// replay applies commits in stamp order, not log order. Commit
	// stamps start at 1: a zero here is a replay error.
	Stamp uint64
	// Ops is the write set of a RecCommit, in commit order, with the
	// document IDs the commit assigned.
	Ops []storage.TxOp
	// Def is the definition of a RecIndexCreate or RecIndexDrop.
	Def xindex.Definition
	// Tables and Indexes are the rest of a RecImage: its tables in
	// name order, and how many RecIndexCreate records follow the
	// image's commits.
	Tables  []ImageTable
	Indexes uint64
	// Capture is the statement list of a RecCapture.
	Capture []workload.CaptureState
}

// ImageTable is one table of a RecImage. NextID keeps deleted-tail IDs
// from being reissued; Docs counts the table's documents in the image.
type ImageTable struct {
	Name   string
	NextID int64
	Docs   uint64
}

// Payload layout per kind:
//
//	commit:   kind, stamp (8B LE), uvarint op count, then per op:
//	          op kind (storage.TxOpKind), str table, uvarint docID,
//	          and for insert and replace the document
//	index-*:  kind, str table, str pattern, byte valueKind
//	image:    kind, uvarint lsn, uvarint stamp, uvarint table count,
//	          then per table: str name, uvarint nextID, uvarint docs;
//	          then uvarint index count
//	capture:  kind, uvarint count, then per entry: str statement,
//	          weight (float64 bits, 8B LE)
//	document: uvarint node count, then per node: byte kind,
//	          varint parent (-1 for the root), str name, str value
//
// The stamp is a fixed-width field right after the kind byte so a
// commit can encode its payload before the commit stamp is allocated
// and patch it in afterwards (PatchStamp). A payload has one encoding:
// the decoder rejects what EncodeCommit and the index encoders would
// not have written.

// stampOffset is where the commit stamp sits in a commit payload.
const stampOffset = 1

// The fewest bytes one element of a counted list takes bound the count
// a payload can claim: a commit op (kind, empty table, one-byte docID),
// an image table (empty name, nextID, docs), a capture entry (empty
// statement, weight) and a document node (kind, parent, empty name and
// value).
const (
	minOpLen      = 3
	minTableLen   = 3
	minCaptureLen = 1 + 8
	minNodeLen    = 4
)

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

func putVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

// writeDoc appends one document's nodes: the one encoding of a
// document in a log record, a checkpoint image and a shipped snapshot.
// Levels and subtree intervals are not written; byteReader.doc
// rebuilds them from the parent links.
func writeDoc(b *bytes.Buffer, doc *xmltree.Document) {
	putUvarint(b, uint64(doc.Len()))
	for i := range doc.Nodes {
		n := &doc.Nodes[i]
		b.WriteByte(byte(n.Kind))
		putVarint(b, int64(n.Parent))
		putStr(b, n.Name)
		putStr(b, n.Value)
	}
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
			writeDoc(&b, op.Doc)
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

// EncodeImage builds the header record of a checkpoint image.
func EncodeImage(lsn, stamp uint64, tables []ImageTable, indexes uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(RecImage))
	putUvarint(&b, lsn)
	putUvarint(&b, stamp)
	putUvarint(&b, uint64(len(tables)))
	for _, t := range tables {
		putStr(&b, t.Name)
		putUvarint(&b, uint64(t.NextID))
		putUvarint(&b, t.Docs)
	}
	putUvarint(&b, indexes)
	return b.Bytes()
}

// EncodeCapture builds the record of a capture sidecar.
func EncodeCapture(states []workload.CaptureState) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(RecCapture))
	putUvarint(&b, uint64(len(states)))
	for _, s := range states {
		putStr(&b, s.Raw)
		b.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(s.Weight)))
	}
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

// fixed64 reads an 8-byte little-endian field.
func (r *byteReader) fixed64() (uint64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, fmt.Errorf("wal: truncated payload")
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.buf[r.off-8:]), nil
}

func (r *byteReader) varint() (int64, error) {
	ux, err := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// count reads a list length and refuses one the rest of the payload
// cannot hold at minLen bytes an element.
func (r *byteReader) count(what string, minLen int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.buf)-r.off)/uint64(minLen) {
		return 0, fmt.Errorf("wal: %d %s claimed in %d bytes", n, what, len(r.buf)-r.off)
	}
	return int(n), nil
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
		err = r.commit(&rec)
	case RecIndexCreate, RecIndexDrop:
		rec.Def, err = r.indexDef()
	case RecImage:
		err = r.image(&rec)
	case RecCapture:
		rec.Capture, err = r.capture()
	default:
		err = fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if err != nil {
		return Record{}, err
	}
	if r.off != len(payload) {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after %v record", len(payload)-r.off, rec.Kind)
	}
	return rec, nil
}

func (r *byteReader) commit(rec *Record) error {
	var err error
	if rec.Stamp, err = r.fixed64(); err != nil {
		return err
	}
	n, err := r.count("commit ops", minOpLen)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wal: empty commit")
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
			if op.Doc, err = r.doc(); err != nil {
				return fmt.Errorf("wal: commit op %d document: %w", i, err)
			}
			op.Doc.DocID = op.DocID
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
	if err := def.Validate(); err != nil {
		return xindex.Definition{}, fmt.Errorf("wal: index record: %w", err)
	}
	return def, nil
}

// doc reads one writeDoc-encoded document, reconstructing levels and
// subtree intervals from the parent links.
func (r *byteReader) doc() (*xmltree.Document, error) {
	n, err := r.count("nodes", minNodeLen)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("wal: empty document")
	}
	doc := &xmltree.Document{Nodes: make([]xmltree.Node, n)}
	// In document order a node's parent is one of the elements still
	// open before it; any other link would give the node a subtree
	// interval its parent's does not contain.
	var open []xmltree.NodeID
	for i := range doc.Nodes {
		nd := &doc.Nodes[i]
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		parent, err := r.varint()
		if err != nil {
			return nil, err
		}
		if nd.Name, err = r.str(); err != nil {
			return nil, err
		}
		if nd.Value, err = r.str(); err != nil {
			return nil, err
		}
		for len(open) > 0 && int64(open[len(open)-1]) != parent {
			open = open[:len(open)-1]
		}
		switch {
		case kind > byte(xmltree.Text):
			return nil, fmt.Errorf("wal: bad node kind %d", kind)
		case i == 0 && parent == -1:
			nd.Level = 1
		case len(open) == 0:
			return nil, fmt.Errorf("wal: node %d: parent %d is not an open element", i, parent)
		default:
			nd.Level = doc.Nodes[parent].Level + 1
		}
		nd.ID, nd.Kind, nd.Parent, nd.EndID = xmltree.NodeID(i), xmltree.Kind(kind), xmltree.NodeID(parent), xmltree.NodeID(i)
		if nd.Kind == xmltree.Element {
			open = append(open, nd.ID)
		}
	}
	for i := len(doc.Nodes) - 1; i > 0; i-- {
		p := &doc.Nodes[doc.Nodes[i].Parent]
		p.EndID = max(p.EndID, doc.Nodes[i].EndID)
	}
	return doc, nil
}

func (r *byteReader) image(rec *Record) error {
	var err error
	if rec.LSN, err = r.uvarint(); err != nil {
		return err
	}
	if rec.Stamp, err = r.uvarint(); err != nil {
		return err
	}
	n, err := r.count("image tables", minTableLen)
	if err != nil {
		return err
	}
	rec.Tables = make([]ImageTable, n)
	for i := range rec.Tables {
		t := &rec.Tables[i]
		if t.Name, err = r.str(); err != nil {
			return err
		}
		if i > 0 && t.Name <= rec.Tables[i-1].Name {
			return fmt.Errorf("wal: image table %q out of order after %q", t.Name, rec.Tables[i-1].Name)
		}
		next, err := r.uvarint()
		if err != nil {
			return err
		}
		if next > math.MaxInt64 {
			return fmt.Errorf("wal: image table %s: next ID %d out of range", t.Name, next)
		}
		t.NextID = int64(next)
		if t.Docs, err = r.uvarint(); err != nil {
			return err
		}
	}
	rec.Indexes, err = r.uvarint()
	return err
}

func (r *byteReader) capture() ([]workload.CaptureState, error) {
	n, err := r.count("capture entries", minCaptureLen)
	if err != nil {
		return nil, err
	}
	states := make([]workload.CaptureState, n)
	for i := range states {
		if states[i].Raw, err = r.str(); err != nil {
			return nil, err
		}
		bits, err := r.fixed64()
		if err != nil {
			return nil, err
		}
		states[i].Weight = math.Float64frombits(bits)
	}
	return states, nil
}

// Package persist implements binary snapshots of a database and its
// index catalog: a length-prefixed, checksummed format holding every
// table's documents as node records, plus the index definitions (index
// contents are rebuilt from data on load, like a REORG, so snapshots
// stay small and can never disagree with the data).
//
// Format (little-endian):
//
//	magic "XIXADB4\n"
//	uvarint lsn, uvarint stamp
//	uvarint tableCount
//	  table: string name, uvarint nextID, uvarint docCount
//	    doc: uvarint docID, uvarint nodeCount
//	      node: byte kind, varint parent(+1), string name, string value
//	uvarint indexDefCount
//	  def: string table, string pattern, byte type
//	uint32 CRC-32 (Castagnoli) of everything before it
//
// Children, levels, and subtree intervals are reconstructed from the
// parent links and document order on load.
//
// The per-table nextID and per-document docID keep document identities
// across a save/load cycle. lsn makes a snapshot a checkpoint: the
// write-ahead log position it reflects, so recovery (server.Recover)
// knows exactly which WAL tail to replay on top of it (0 for a plain
// snapshot). stamp is the MVCC commit stamp (the watermark) at that
// point: loading applies the whole image as one committed write set at
// that stamp, so the loaded database's watermark is exactly stamp — a
// checkpoint is the committed prefix through stamp — and stamps stay
// contiguous across the whole log history. An image has one encoding:
// the loader rejects anything SaveCheckpoint would not have written
// (non-minimal varints, unsorted tables, IDs at or past nextID,
// non-canonical index patterns, trailing bytes). A checkpoint may carry
// a capture sidecar (SaveCaptureFile) so a restarted daemon's tuner
// warm-starts from the checkpointed workload instead of relearning it.
//
// This is the only format read: the three earlier layouts ("XIXADB1"
// through "XIXADB3", last written before the commit stamp was added)
// are recognized and rejected as unsupported, not loaded.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

var (
	magic    = []byte("XIXADB4\n")
	magicCap = []byte("XIXACAP1")
)

// checkMagic validates a snapshot's leading magic: the current format
// passes, an earlier format version is named as such, anything else is
// not a snapshot.
func checkMagic(head []byte) error {
	switch string(head) {
	case string(magic):
		return nil
	case "XIXADB1\n", "XIXADB2\n", "XIXADB3\n":
		return fmt.Errorf("persist: unsupported snapshot version %q (this build reads only %q)", head[:len(head)-1], magic[:len(magic)-1])
	}
	return fmt.Errorf("persist: not a xixa snapshot (bad magic %q)", head)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type countingWriter struct {
	w   io.Writer
	sum hash.Hash32 // nil = no checksum (the WAL frames payloads with its own CRC)
	buf [binary.MaxVarintLen64]byte
}

func (cw *countingWriter) write(p []byte) error {
	if _, err := cw.w.Write(p); err != nil {
		return err
	}
	if cw.sum != nil {
		cw.sum.Write(p)
	}
	return nil
}

func (cw *countingWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(cw.buf[:], v)
	return cw.write(cw.buf[:n])
}

func (cw *countingWriter) varint(v int64) error {
	n := binary.PutVarint(cw.buf[:], v)
	return cw.write(cw.buf[:n])
}

func (cw *countingWriter) str(s string) error {
	if err := cw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	return cw.write([]byte(s))
}

// SaveDatabase writes a snapshot of db and the given index definitions
// with no WAL position (LSN 0) — the plain, non-durable snapshot path.
func SaveDatabase(w io.Writer, db *storage.Database, defs []xindex.Definition) error {
	return SaveCheckpoint(w, db, defs, 0, 0)
}

// SaveCheckpoint writes a snapshot stamped with the write-ahead log
// position and MVCC commit stamp (watermark) it reflects: recovery
// loads it, advances the stamp allocator to stamp, and replays only
// the WAL records past lsn.
func SaveCheckpoint(w io.Writer, db *storage.Database, defs []xindex.Definition, lsn, stamp uint64) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw, sum: crc32.New(crcTable)}
	if err := cw.write(magic); err != nil {
		return err
	}
	if err := cw.uvarint(lsn); err != nil {
		return err
	}
	if err := cw.uvarint(stamp); err != nil {
		return err
	}
	names := db.TableNames()
	if err := cw.uvarint(uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		tbl, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := cw.str(name); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(tbl.NextID())); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(tbl.DocCount())); err != nil {
			return err
		}
		var docErr error
		tbl.Scan(func(doc *xmltree.Document) bool {
			if docErr = cw.uvarint(uint64(doc.DocID)); docErr != nil {
				return false
			}
			docErr = writeDoc(cw, doc)
			return docErr == nil
		})
		if docErr != nil {
			return docErr
		}
	}
	if err := cw.uvarint(uint64(len(defs))); err != nil {
		return err
	}
	for _, def := range defs {
		if err := cw.str(def.Table); err != nil {
			return err
		}
		if err := cw.str(def.Pattern.String()); err != nil {
			return err
		}
		kind := byte(0)
		if def.Type == xpath.NumberVal {
			kind = 1
		}
		if err := cw.write([]byte{kind}); err != nil {
			return err
		}
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.sum.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func writeDoc(cw *countingWriter, doc *xmltree.Document) error {
	if err := cw.uvarint(uint64(doc.Len())); err != nil {
		return err
	}
	for i := range doc.Nodes {
		n := &doc.Nodes[i]
		if err := cw.write([]byte{byte(n.Kind)}); err != nil {
			return err
		}
		if err := cw.varint(int64(n.Parent)); err != nil {
			return err
		}
		if err := cw.str(n.Name); err != nil {
			return err
		}
		if err := cw.str(n.Value); err != nil {
			return err
		}
	}
	return nil
}

// byteScanner is what checkedReader needs from its source:
// bufio.Reader and bytes.Reader both qualify.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

type checkedReader struct {
	r    byteScanner
	sum  hash.Hash32 // nil = no checksum (the WAL frames payloads with its own CRC)
	n    int         // bytes consumed through ReadByte
	last byte        // the last of them
}

func (cr *checkedReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if cr.sum != nil {
		cr.sum.Write([]byte{b})
	}
	cr.n++
	cr.last = b
	return b, nil
}

func (cr *checkedReader) read(p []byte) error {
	if _, err := io.ReadFull(cr.r, p); err != nil {
		return err
	}
	if cr.sum != nil {
		cr.sum.Write(p)
	}
	return nil
}

// uvarint reads a minimally encoded uvarint: a multi-byte encoding
// ending in a zero byte has a shorter spelling the writer would have
// used.
func (cr *checkedReader) uvarint() (uint64, error) {
	start := cr.n
	v, err := binary.ReadUvarint(cr)
	if err == nil && cr.n-start > 1 && cr.last == 0 {
		return 0, fmt.Errorf("persist: non-minimal varint")
	}
	return v, err
}

func (cr *checkedReader) varint() (int64, error) {
	ux, err := cr.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// maxStringLen bounds string fields to keep corrupted lengths from
// allocating unbounded memory.
const maxStringLen = 1 << 24

func (cr *checkedReader) str() (string, error) {
	n, err := cr.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("persist: string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if err := cr.read(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// LoadCheckpoint reads a snapshot, verifies its checksum, and rebuilds
// the database and index definitions, additionally returning the WAL
// LSN and MVCC commit stamp the snapshot was stamped with. The
// documents enter through one storage.ApplyCommitted at that stamp, so
// the database's Watermark() equals it.
func LoadCheckpoint(r io.Reader) (*storage.Database, []xindex.Definition, uint64, uint64, error) {
	cr := &checkedReader{r: bufio.NewReader(r), sum: crc32.New(crcTable)}
	head := make([]byte, len(magic))
	if err := cr.read(head); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	if err := checkMagic(head); err != nil {
		return nil, nil, 0, 0, err
	}
	lsn, err := cr.uvarint()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	stamp, err := cr.uvarint()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	db := storage.NewDatabase()
	tableCount, err := cr.uvarint()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var ops []storage.TxOp
	prev := ""
	for t := uint64(0); t < tableCount; t++ {
		name, err := cr.str()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if t > 0 && name <= prev {
			return nil, nil, 0, 0, fmt.Errorf("persist: table %q out of order after %q", name, prev)
		}
		prev = name
		tbl, err := db.CreateTable(name)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		nextID, err := cr.uvarint()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if nextID > math.MaxInt64 {
			return nil, nil, 0, 0, fmt.Errorf("persist: table %s nextID %d out of range", name, nextID)
		}
		tbl.SetNextID(int64(nextID))
		docCount, err := cr.uvarint()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		for d := uint64(0); d < docCount; d++ {
			docID, err := cr.uvarint()
			if err != nil {
				return nil, nil, 0, 0, err
			}
			if docID >= nextID {
				return nil, nil, 0, 0, fmt.Errorf("persist: table %s doc ID %d at or past nextID %d", name, docID, nextID)
			}
			doc, err := readDoc(cr)
			if err != nil {
				return nil, nil, 0, 0, fmt.Errorf("persist: table %s doc %d: %w", name, d, err)
			}
			ops = append(ops, storage.TxOp{Table: name, Kind: storage.TxInsert, DocID: int64(docID), Doc: doc})
		}
	}
	defCount, err := cr.uvarint()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var defs []xindex.Definition
	for i := uint64(0); i < defCount; i++ {
		table, err := cr.str()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		patText, err := cr.str()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		pattern, err := xpath.ParsePattern(patText)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("persist: index %d: %w", i, err)
		}
		if pattern.String() != patText {
			return nil, nil, 0, 0, fmt.Errorf("persist: index %d: pattern %q not in canonical form %q", i, patText, pattern.String())
		}
		var kindByte [1]byte
		if err := cr.read(kindByte[:]); err != nil {
			return nil, nil, 0, 0, err
		}
		if kindByte[0] > 1 {
			return nil, nil, 0, 0, fmt.Errorf("persist: index %d: bad key type %d", i, kindByte[0])
		}
		kind := xpath.StringVal
		if kindByte[0] == 1 {
			kind = xpath.NumberVal
		}
		defs = append(defs, xindex.Definition{Table: table, Pattern: pattern, Type: kind})
	}
	wantSum := cr.sum.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr.r, crcBuf[:]); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != wantSum {
		return nil, nil, 0, 0, fmt.Errorf("persist: checksum mismatch (snapshot corrupted)")
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, nil, 0, 0, fmt.Errorf("persist: data after the checksum")
	}
	if err := db.ApplyCommitted(stamp, ops); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: %w", err)
	}
	return db, defs, lsn, stamp, nil
}

func readDoc(cr *checkedReader) (*xmltree.Document, error) {
	nodeCount, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if nodeCount == 0 {
		return nil, fmt.Errorf("empty document")
	}
	if nodeCount > maxStringLen {
		return nil, fmt.Errorf("node count %d exceeds limit", nodeCount)
	}
	// Capacity grows with bytes actually read: a corrupt count must not
	// allocate millions of nodes up front.
	doc := &xmltree.Document{Nodes: make([]xmltree.Node, 0, min(nodeCount, 4096))}
	for i := uint64(0); i < nodeCount; i++ {
		var kind [1]byte
		if err := cr.read(kind[:]); err != nil {
			return nil, err
		}
		if kind[0] > byte(xmltree.Text) {
			return nil, fmt.Errorf("bad node kind %d", kind[0])
		}
		parent, err := cr.varint()
		if err != nil {
			return nil, err
		}
		if parent >= int64(i) || parent < -1 {
			return nil, fmt.Errorf("node %d has invalid parent %d", i, parent)
		}
		name, err := cr.str()
		if err != nil {
			return nil, err
		}
		value, err := cr.str()
		if err != nil {
			return nil, err
		}
		doc.Nodes = append(doc.Nodes, xmltree.Node{
			ID:     xmltree.NodeID(i),
			Kind:   xmltree.Kind(kind[0]),
			Name:   name,
			Value:  value,
			Parent: xmltree.NodeID(parent),
			EndID:  xmltree.NodeID(i),
		})
	}
	// Reconstruct children, levels, and subtree intervals from the
	// parent links: document order means a child always follows its
	// parent.
	for i := range doc.Nodes {
		n := &doc.Nodes[i]
		if n.Parent < 0 {
			if i != 0 {
				return nil, fmt.Errorf("node %d is a second root", i)
			}
			n.Level = 1
			continue
		}
		p := &doc.Nodes[n.Parent]
		p.Children = append(p.Children, n.ID)
		n.Level = p.Level + 1
	}
	for i := len(doc.Nodes) - 1; i > 0; i-- {
		n := &doc.Nodes[i]
		p := &doc.Nodes[n.Parent]
		if n.EndID > p.EndID {
			p.EndID = n.EndID
		}
	}
	return doc, nil
}

// RebuildIndexes materializes the snapshot's persisted index catalog
// against the loaded database — the warm-start half of the format's
// "definitions only; rebuild on load" contract (index contents are
// reconstructed from data, like a REORG, so they can never disagree
// with the documents). The indexes come back in the order the
// definitions were saved; definitions whose table is missing fail.
func RebuildIndexes(db *storage.Database, defs []xindex.Definition) ([]*xindex.Index, error) {
	out := make([]*xindex.Index, 0, len(defs))
	for _, def := range defs {
		tbl, err := db.Table(def.Table)
		if err != nil {
			return nil, fmt.Errorf("persist: rebuilding %s: %w", def, err)
		}
		idx, err := xindex.Build(tbl, def)
		if err != nil {
			return nil, fmt.Errorf("persist: rebuilding %s: %w", def, err)
		}
		out = append(out, idx)
	}
	return out, nil
}

// writeFileAtomic writes via a temp file, fsyncs it, renames it over
// path, and fsyncs the parent directory — the full sequence required
// for the result to survive power loss. Without the file fsync a crash
// after the rename can expose an empty or partial file; without the
// directory fsync the rename itself may not be durable.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a just-renamed entry inside it is
// durable. Exported because the write-ahead log's file swaps need the
// identical sequence; power-loss-critical fsync logic should live
// once.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveFile writes a snapshot to path atomically (temp file + fsync +
// rename + directory fsync).
func SaveFile(path string, db *storage.Database, defs []xindex.Definition) error {
	return SaveCheckpointFile(path, db, defs, 0, 0)
}

// SaveCheckpointFile writes an LSN- and stamp-stamped snapshot to path
// atomically.
func SaveCheckpointFile(path string, db *storage.Database, defs []xindex.Definition, lsn, stamp uint64) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return SaveCheckpoint(w, db, defs, lsn, stamp)
	})
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*storage.Database, []xindex.Definition, error) {
	db, defs, _, _, err := LoadCheckpointFile(path)
	return db, defs, err
}

// LoadCheckpointFile reads an LSN- and stamp-stamped snapshot from
// path.
func LoadCheckpointFile(path string) (*storage.Database, []xindex.Definition, uint64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// EncodeDoc writes one document in the snapshot node encoding (uvarint
// node count, then kind/parent/name/value per node) — the payload
// format the write-ahead log reuses for its doc-insert records so the
// snapshot and the log can never disagree on what a document is. It
// runs on the per-commit hot path (the server's commit prepare hook,
// before the commit stamp is allocated), so it writes straight to w
// with no checksum and no buffering of its own — the WAL frames the
// payload with its own CRC.
func EncodeDoc(w io.Writer, doc *xmltree.Document) error {
	return writeDoc(&countingWriter{w: w}, doc)
}

// DecodeDoc reads one EncodeDoc-encoded document, reconstructing
// children, levels, and subtree intervals from the parent links.
// Readers that are not already byte-oriented are buffered, in which
// case the document must be the trailing field of whatever frame
// contains it.
func DecodeDoc(r io.Reader) (*xmltree.Document, error) {
	bs, ok := r.(byteScanner)
	if !ok {
		bs = bufio.NewReader(r)
	}
	return readDoc(&checkedReader{r: bs})
}

// SaveCapture writes a workload capture's persistent form: the sidecar
// a checkpoint carries so a restarted daemon's tuner warm-starts from
// the checkpointed workload. Format: magic "XIXACAP1", uvarint count,
// then per entry a raw statement string and a float64 weight, closed
// by the usual CRC-32C.
func SaveCapture(w io.Writer, states []workload.CaptureState) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw, sum: crc32.New(crcTable)}
	if err := cw.write(magicCap); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(len(states))); err != nil {
		return err
	}
	for _, s := range states {
		if err := cw.str(s.Raw); err != nil {
			return err
		}
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(s.Weight))
		if err := cw.write(bits[:]); err != nil {
			return err
		}
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.sum.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCapture reads a SaveCapture stream, verifying its checksum.
func LoadCapture(r io.Reader) ([]workload.CaptureState, error) {
	cr := &checkedReader{r: bufio.NewReader(r), sum: crc32.New(crcTable)}
	head := make([]byte, len(magicCap))
	if err := cr.read(head); err != nil {
		return nil, fmt.Errorf("persist: reading capture magic: %w", err)
	}
	if string(head) != string(magicCap) {
		return nil, fmt.Errorf("persist: not a capture sidecar (bad magic %q)", head)
	}
	count, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxStringLen {
		return nil, fmt.Errorf("persist: capture count %d exceeds limit", count)
	}
	states := make([]workload.CaptureState, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := cr.str()
		if err != nil {
			return nil, err
		}
		var bits [8]byte
		if err := cr.read(bits[:]); err != nil {
			return nil, err
		}
		states = append(states, workload.CaptureState{
			Raw:    raw,
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(bits[:])),
		})
	}
	wantSum := cr.sum.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr.r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("persist: reading capture checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != wantSum {
		return nil, fmt.Errorf("persist: capture checksum mismatch")
	}
	return states, nil
}

// SaveCaptureFile writes a capture sidecar to path atomically.
func SaveCaptureFile(path string, states []workload.CaptureState) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return SaveCapture(w, states)
	})
}

// LoadCaptureFile reads a capture sidecar from path.
func LoadCaptureFile(path string) ([]workload.CaptureState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCapture(f)
}

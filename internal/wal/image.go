package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xixa/internal/storage"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
)

// A checkpoint image is the database as of one log position, written
// in the log's own records: after imageMagic comes a run of frames
// (the log's [u32 len][u32 CRC-32C][payload]), and their payloads are
//
//	one RecImage header: the LSN and stamp, and every table with its
//	  next document ID and document count, in name order;
//	insert-only RecCommit records at the header's stamp, holding every
//	  document, tables in name order and documents in Scan order, split
//	  every imageBatch documents;
//	one RecIndexCreate per catalog definition, in catalog order.
//
// Index contents are not written: they rebuild from the documents, so
// they can never disagree with them. Loading applies every document as
// one storage.ApplyCommitted at the stamp, so the loaded database's
// watermark is exactly the stamp — a checkpoint is the committed prefix
// through it — and stamps stay contiguous across the whole history. An
// image has one encoding: the loader refuses what SaveCheckpoint would
// not have written, and the header's counts make an image cut at a
// frame boundary fail like any other truncation.
//
// The capture sidecar is the same magic and frame around one RecCapture
// record. It stays a file of its own because it is a warm-start cache,
// not data: a corrupt one must only cost the tuner its history
// (server.RecoverInfo.CaptureError), never the checkpoint.
var imageMagic = []byte("XIXADB5\n")

// imageBatch is how many documents one RecCommit of an image holds: a
// fixed split, so an image has one encoding.
const imageBatch = 256

// readImageHead reads an image's magic and its first record, which
// must be of kind want. An earlier image version is named as such.
func readImageHead(r io.Reader, want RecKind) (Record, error) {
	head := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return Record{}, fmt.Errorf("wal: reading image magic: %w", err)
	}
	switch string(head) {
	case string(imageMagic):
	case "XIXADB1\n", "XIXADB2\n", "XIXADB3\n", "XIXADB4\n":
		return Record{}, fmt.Errorf("wal: unsupported image version %q (this build reads only %q)", head[:7], imageMagic[:7])
	default:
		return Record{}, fmt.Errorf("wal: not a xixa image (bad magic %q)", head)
	}
	payload, err := ReadFrame(r, maxRecordLen)
	if err != nil {
		return Record{}, fmt.Errorf("wal: reading the image's %v record: %w", want, err)
	}
	rec, err := DecodePayload(0, payload)
	if err != nil {
		return Record{}, err
	}
	if rec.Kind != want {
		return Record{}, fmt.Errorf("wal: image starts with a %v record, want %v", rec.Kind, want)
	}
	return rec, nil
}

// PeekCheckpointLSN reads just the LSN from a checkpoint's header,
// without loading the rest — the replication handshake needs it to
// decide whether a snapshot ships, and a follower checks a shipped
// image's LSN against the frame that carried it, before anyone pays to
// decode the documents.
func PeekCheckpointLSN(r io.Reader) (uint64, error) {
	rec, err := readImageHead(r, RecImage)
	return rec.LSN, err
}

// SaveCheckpoint writes an image of db and defs at the log position
// lsn and the commit stamp (watermark) stamp it reflects; an image with
// no log position is saved at (0, 0).
func SaveCheckpoint(w io.Writer, db *storage.Database, defs []xindex.Definition, lsn, stamp uint64) error {
	names := db.TableNames()
	tables := make([]ImageTable, len(names))
	tbls := make([]*storage.Table, len(names))
	for i, name := range names {
		tbl, err := db.Table(name)
		if err != nil {
			return err
		}
		tbls[i] = tbl
		tables[i] = ImageTable{Name: name, NextID: tbl.NextID(), Docs: uint64(tbl.DocCount())}
	}
	// bw keeps its first write error and Flush returns it.
	bw := bufio.NewWriter(w)
	bw.Write(imageMagic)
	WriteFrame(bw, EncodeImage(lsn, stamp, tables, uint64(len(defs))))
	var ops []storage.TxOp
	var err error
	flush := func() {
		var p []byte
		if p, err = EncodeCommit(ops, stamp); err == nil {
			WriteFrame(bw, p)
		}
		ops = ops[:0]
	}
	for i, tbl := range tbls {
		tbl.Scan(func(doc *xmltree.Document) bool {
			ops = append(ops, storage.TxOp{Table: names[i], Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc})
			if len(ops) == imageBatch {
				flush()
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	if len(ops) > 0 {
		if flush(); err != nil {
			return err
		}
	}
	for _, def := range defs {
		WriteFrame(bw, EncodeIndexCreate(def))
	}
	return bw.Flush()
}

// LoadCheckpoint reads an image and returns the database, the index
// definitions, and the LSN and stamp the image was saved at.
func LoadCheckpoint(r io.Reader) (*storage.Database, []xindex.Definition, uint64, uint64, error) {
	br := bufio.NewReader(r)
	hdr, err := readImageHead(br, RecImage)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	fail := func(format string, args ...any) (*storage.Database, []xindex.Definition, uint64, uint64, error) {
		return nil, nil, 0, 0, fmt.Errorf("wal: checkpoint: "+format, args...)
	}
	db := storage.NewDatabase()
	pos := make(map[string]int, len(hdr.Tables)) // header index by name
	for i, t := range hdr.Tables {
		db.MustCreateTable(t.Name).SetNextID(t.NextID) // the header's names are distinct
		pos[t.Name] = i
	}
	var (
		ops     []storage.TxOp
		defs    []xindex.Definition
		docs    = make([]uint64, len(hdr.Tables)) // documents read per table
		ti      int                               // header index of the last document's table
		lastLen int                               // ops in the previous commit record
	)
	for frame := 2; ; frame++ { // the header is frame 1
		payload, err := ReadFrame(br, maxRecordLen)
		if err == io.EOF {
			break
		} else if err != nil {
			return fail("frame %d: %w", frame, err)
		}
		rec, err := DecodePayload(0, payload)
		if err != nil {
			return fail("frame %d: %w", frame, err)
		}
		switch rec.Kind {
		case RecCommit:
			switch {
			case defs != nil:
				return fail("frame %d: commit after the index definitions", frame)
			case rec.Stamp != hdr.Stamp:
				return fail("frame %d: commit at stamp %d in an image at %d", frame, rec.Stamp, hdr.Stamp)
			case lastLen != 0 && lastLen != imageBatch, len(rec.Ops) > imageBatch:
				return fail("frame %d: commit of %d documents after one of %d (the split is %d)", frame, len(rec.Ops), lastLen, imageBatch)
			}
			lastLen = len(rec.Ops)
			for _, op := range rec.Ops {
				i, ok := pos[op.Table]
				switch {
				case op.Kind != storage.TxInsert:
					return fail("frame %d: op of kind %d on doc %d (an image holds inserts only)", frame, op.Kind, op.DocID)
				case !ok || i < ti:
					return fail("frame %d: a document of table %q missing from the header or out of order", frame, op.Table)
				case op.DocID >= hdr.Tables[i].NextID:
					return fail("table %s doc ID %d at or past next ID %d", op.Table, op.DocID, hdr.Tables[i].NextID)
				}
				ti = i
				docs[i]++
				ops = append(ops, op)
			}
		case RecIndexCreate:
			defs = append(defs, rec.Def)
		default:
			return fail("frame %d: unexpected %v record", frame, rec.Kind)
		}
	}
	for i, t := range hdr.Tables {
		if docs[i] != t.Docs {
			return fail("table %s holds %d documents, header says %d", t.Name, docs[i], t.Docs)
		}
	}
	if uint64(len(defs)) != hdr.Indexes {
		return fail("%d index definitions, header says %d", len(defs), hdr.Indexes)
	}
	if err := db.ApplyCommitted(hdr.Stamp, ops); err != nil {
		return fail("%w", err)
	}
	return db, defs, hdr.LSN, hdr.Stamp, nil
}

// SaveCheckpointFile writes an image to path atomically.
func SaveCheckpointFile(path string, db *storage.Database, defs []xindex.Definition, lsn, stamp uint64) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		return SaveCheckpoint(w, db, defs, lsn, stamp)
	})
}

// LoadCheckpointFile reads an image from path.
func LoadCheckpointFile(path string) (*storage.Database, []xindex.Definition, uint64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// SaveCaptureFile writes a capture sidecar to path atomically.
func SaveCaptureFile(path string, states []workload.CaptureState) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		bw.Write(imageMagic)
		WriteFrame(bw, EncodeCapture(states))
		return bw.Flush()
	})
}

// LoadCaptureFile reads a capture sidecar from path.
func LoadCaptureFile(path string) ([]workload.CaptureState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	rec, err := readImageHead(br, RecCapture)
	if err != nil {
		return nil, err
	}
	if _, err := ReadFrame(br, maxRecordLen); err != io.EOF {
		return nil, fmt.Errorf("wal: capture sidecar holds more than its record")
	}
	return rec.Capture, nil
}

// WriteFileAtomic writes via a temp file, fsyncs it, renames it over
// path, and fsyncs the parent directory — the full sequence required
// for the result to survive power loss. Without the file fsync a crash
// after the rename can expose an empty or partial file; without the
// directory fsync the rename itself may not be durable. Exported for
// the follower, which adopts a shipped checkpoint image through it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry inside it is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

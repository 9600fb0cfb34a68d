package persist

// Checkpoint archive: at each checkpoint the serving layer copies the
// fresh checkpoint into the archive directory under an LSN-stamped
// name, alongside the WAL segments the log's Truncate moves there. Any
// archived checkpoint plus the archived records past its stamp rebuild
// the database image at any committed LSN — the point-in-time restore
// substrate (server.RestoreToLSN).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ArchivedCheckpoint names one LSN-stamped checkpoint in an archive
// directory.
type ArchivedCheckpoint struct {
	Path string
	LSN  uint64
}

const (
	archivedCheckpointPrefix = "checkpoint-"
	archivedCheckpointSuffix = ".db"
)

// ArchivedCheckpointName is the archive file name for a checkpoint
// stamped lsn. The 20-digit zero-padded LSN keeps lexical order equal
// to LSN order.
func ArchivedCheckpointName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", archivedCheckpointPrefix, lsn, archivedCheckpointSuffix)
}

// ArchiveCheckpoint copies the checkpoint file at src into archiveDir
// under its LSN-stamped archive name (atomically: tmp, fsync, rename),
// returning the archived path. Re-archiving the same LSN overwrites —
// the bytes are identical by construction.
func ArchiveCheckpoint(src, archiveDir string, lsn uint64) (string, error) {
	if err := os.MkdirAll(archiveDir, 0o755); err != nil {
		return "", err
	}
	in, err := os.Open(src)
	if err != nil {
		return "", err
	}
	defer in.Close()
	dst := filepath.Join(archiveDir, ArchivedCheckpointName(lsn))
	err = writeFileAtomic(dst, func(w io.Writer) error {
		_, cerr := io.Copy(w, in)
		return cerr
	})
	if err != nil {
		return "", err
	}
	return dst, nil
}

// PeekCheckpointLSN reads just the LSN stamp from a checkpoint's
// header, without loading (or checksumming) the snapshot body — the
// replication handshake needs the stamp to decide whether a snapshot
// ships, long before anyone pays to deserialize it.
func PeekCheckpointLSN(r io.Reader) (uint64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	if err := checkMagic(head); err != nil {
		return 0, err
	}
	return binary.ReadUvarint(br)
}

// ListArchivedCheckpoints finds the LSN-stamped checkpoints in
// archiveDir, oldest first. A missing directory is an empty archive,
// not an error.
func ListArchivedCheckpoints(archiveDir string) ([]ArchivedCheckpoint, error) {
	entries, err := os.ReadDir(archiveDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []ArchivedCheckpoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, archivedCheckpointPrefix) || !strings.HasSuffix(name, archivedCheckpointSuffix) {
			continue
		}
		lsnText := name[len(archivedCheckpointPrefix) : len(name)-len(archivedCheckpointSuffix)]
		lsn, perr := strconv.ParseUint(lsnText, 10, 64)
		if perr != nil {
			continue
		}
		out = append(out, ArchivedCheckpoint{Path: filepath.Join(archiveDir, name), LSN: lsn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out, nil
}

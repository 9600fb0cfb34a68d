package server

// Point-in-time restore: an archived checkpoint stamped at or before
// the target LSN, plus the archived and live WAL records past its
// stamp, rebuild the exact database image at any committed LSN. The
// replay runs through the same Applier as crash recovery and
// replication, so "the image at LSN N" means the same thing
// everywhere: every commit and index record through N. Every LSN is a
// commit boundary, so any N in the retained history is a restore point.

import (
	"fmt"
	"os"
	"path/filepath"

	"xixa/internal/persist"
	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xindex"
)

// RestoreResult is a point-in-time restore's outcome.
type RestoreResult struct {
	// DB and Defs are the restored image: the database and the index
	// definitions in force at the restore point.
	DB   *storage.Database
	Defs []xindex.Definition
	// BaseLSN is the stamp of the checkpoint the replay started from.
	BaseLSN uint64
	// Replayed is the number of record operations applied past the base.
	Replayed int
}

// RestoreToLSN rebuilds the database image at target from the
// durability directory walDir and its archive archiveDir (may equal
// the server's Config.ArchiveDir; "" consults only walDir — enough
// when no checkpoint has truncated the needed history yet). It picks
// the newest checkpoint stamped at or before target, then replays
// archived segments, sealed segments, and the active log through
// target. The directories are read without locking — restore runs
// against a stopped server's directory, or a copy.
func RestoreToLSN(walDir, archiveDir string, target uint64) (*RestoreResult, error) {
	res := &RestoreResult{}

	// Pick the restore base: the newest checkpoint stamped <= target.
	// The live checkpoint.db is preferred when eligible (least replay);
	// archived checkpoints reach further back in time.
	var db *storage.Database
	var defs []xindex.Definition
	base := uint64(0)
	baseStamp := uint64(0)
	haveBase := false
	chkPath := filepath.Join(walDir, checkpointFile)
	if _, err := os.Stat(chkPath); err == nil {
		cdb, cdefs, clsn, cstamp, lerr := persist.LoadCheckpointFile(chkPath)
		if lerr != nil {
			return nil, fmt.Errorf("server: restore: loading checkpoint: %w", lerr)
		}
		if clsn <= target {
			db, defs, base, baseStamp, haveBase = cdb, cdefs, clsn, cstamp, true
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if !haveBase && archiveDir != "" {
		archived, err := persist.ListArchivedCheckpoints(archiveDir)
		if err != nil {
			return nil, err
		}
		for i := len(archived) - 1; i >= 0; i-- {
			if archived[i].LSN <= target {
				cdb, cdefs, clsn, cstamp, lerr := persist.LoadCheckpointFile(archived[i].Path)
				if lerr != nil {
					return nil, fmt.Errorf("server: restore: loading archived checkpoint %s: %w", archived[i].Path, lerr)
				}
				db, defs, base, baseStamp, haveBase = cdb, cdefs, clsn, cstamp, true
				break
			}
		}
	}
	if !haveBase {
		// No checkpoint at or before target: only valid when the WAL
		// history reaches back to genesis (the coverage check below
		// catches the gap if it does not).
		db = storage.NewDatabase()
	}
	res.BaseLSN = base

	// Gather the record history: archived segments, sealed segments
	// still in walDir, and the active log file, in LSN order. The
	// applier's gap check turns missing history into a loud error.
	var files []wal.SegmentInfo
	if archiveDir != "" {
		arch, err := wal.ListSegmentFiles(archiveDir, walLogFile)
		if err != nil {
			return nil, err
		}
		files = append(files, arch...)
	}
	sealed, err := wal.ListSegmentFiles(walDir, walLogFile)
	if err != nil {
		return nil, err
	}
	files = append(files, sealed...)

	applier := NewApplier(db, defs, base, baseStamp)
	applyFile := func(recs []wal.Record) error {
		for i := range recs {
			if recs[i].LSN > target {
				return nil
			}
			if err := applier.Apply(recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sf := range files {
		if sf.End <= base || applier.AppliedLSN() >= target {
			continue
		}
		if sf.Start > target {
			break
		}
		_, recs, torn, rerr := wal.ReadSegment(sf.Path)
		if rerr != nil {
			return nil, fmt.Errorf("server: restore: segment %s: %w", sf.Path, rerr)
		}
		if err := applyFile(recs); err != nil {
			return nil, err
		}
		if torn && applier.AppliedLSN() < target {
			return nil, fmt.Errorf("server: restore: segment %s is torn before target %d", sf.Path, target)
		}
	}
	if applier.AppliedLSN() < target {
		activePath := filepath.Join(walDir, walLogFile)
		if _, err := os.Stat(activePath); err == nil {
			_, recs, _, rerr := wal.ReadSegment(activePath)
			if rerr != nil {
				return nil, fmt.Errorf("server: restore: active log: %w", rerr)
			}
			if err := applyFile(recs); err != nil {
				return nil, err
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	if applier.AppliedLSN() < target {
		return nil, fmt.Errorf("server: restore: history ends at LSN %d, short of target %d", applier.AppliedLSN(), target)
	}
	if err := applier.Flush(); err != nil {
		return nil, err
	}

	res.DB = db
	res.Defs = applier.Defs()
	res.Replayed = applier.OpsApplied()
	return res, nil
}

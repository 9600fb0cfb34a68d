package replica

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"xixa/internal/wal"
)

// The epoch file sits next to the WAL in the durability directory and
// records the highest primary epoch this node has witnessed. Epochs
// only grow: a promotion persists maxSeen+1 before the node accepts
// its first write, so even after a crash the promoted node presents an
// epoch every surviving zombie must yield to.
const epochFile = "epoch"

// LoadEpoch reads the witnessed epoch from dir (0 if none recorded).
func LoadEpoch(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: corrupt epoch file: %w", err)
	}
	return e, nil
}

// StoreEpoch durably records a witnessed epoch (wal.WriteFileAtomic)
// if it is higher than what dir already holds; regressions are
// silently ignored — an epoch, once witnessed, is never unlearned.
func StoreEpoch(dir string, epoch uint64) error {
	if cur, err := LoadEpoch(dir); err == nil && cur >= epoch {
		return nil
	}
	return wal.WriteFileAtomic(filepath.Join(dir, epochFile), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", epoch)
		return err
	})
}

package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// errCursorRetry marks a transient race between a cursor and a
// concurrent checkpoint's file swap; the cursor re-resolves and retries.
var errCursorRetry = errors.New("wal: cursor raced a log file swap")

// Cursor streams a log's records in LSN order, starting after a chosen
// position — the primary side of WAL shipping. It reads through its
// own file descriptor, moving to the fresh file when a checkpoint swaps
// the log, and only ever surfaces records the log has flushed (records
// a client could have been told committed). A cursor tails a live log:
// Next returns
// (0, nil, nil) at the flushed tip and later calls pick up new
// records. A Cursor is not safe for concurrent use.
type Cursor struct {
	l    *Log
	next uint64 // LSN of the next record to surface
	f    *os.File
	r    *bufio.Reader
	pos  uint64 // LSN of the last record read from the open file
}

// Cursor returns a cursor positioned to surface record after+1 next.
// The position may be anywhere from StartLSN on; a position truncated
// away surfaces ErrTruncated from Next.
func (l *Log) Cursor(after uint64) *Cursor {
	return &Cursor{l: l, next: after + 1}
}

// Next returns the next flushed record's LSN and raw payload, or
// (0, nil, nil) when the cursor has caught up with the flushed tip.
// The payload is freshly allocated and the caller's to keep.
func (c *Cursor) Next() (uint64, []byte, error) {
	c.l.mu.Lock()
	limit := c.l.flushed
	closed := c.l.closed
	c.l.mu.Unlock()
	if c.next > limit {
		if closed {
			return 0, nil, ErrClosed
		}
		return 0, nil, nil
	}
	retries := 0
	for {
		if c.f == nil {
			if err := c.open(); err != nil {
				if errors.Is(err, errCursorRetry) && retries < 5 {
					retries++
					continue
				}
				return 0, nil, err
			}
		}
		payload, err := ReadFrame(c.r, maxRecordLen)
		if err == io.EOF {
			// The file ended before c.next: a checkpoint swapped the log
			// and the record lives in the fresh file — reopen at the
			// current position.
			c.Close()
			if retries >= 5 {
				return 0, nil, fmt.Errorf("wal: cursor stuck at LSN %d", c.next)
			}
			retries++
			continue
		}
		if err != nil {
			c.Close()
			return 0, nil, fmt.Errorf("wal: cursor frame at LSN %d: %w", c.pos+1, err)
		}
		if c.pos++; c.pos < c.next {
			continue // skipping forward inside a freshly opened file
		}
		c.next = c.pos + 1
		return c.pos, payload, nil
	}
}

// open resolves the file holding record c.next and opens it positioned
// after the header.
func (c *Cursor) open() error {
	c.l.mu.Lock()
	path, fileStart, err := c.l.resolveLocked(c.next)
	c.l.mu.Unlock()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	r := bufio.NewReader(f)
	start, err := readHeader(r)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: cursor: %s: %w", path, err)
	}
	if start != fileStart {
		// A checkpoint swapped the file after resolve handed out its
		// start.
		f.Close()
		return errCursorRetry
	}
	c.f, c.r, c.pos = f, r, fileStart
	return nil
}

// Close releases the cursor's file descriptor. The cursor stays usable
// — the next Next reopens at the current position.
func (c *Cursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
		c.r = nil
	}
}

// resolveLocked names the file holding record lsn and the LSN before
// that file's first record. The file resolves for any lsn past its
// start, even beyond the last record — callers gate on the flushed tip.
func (l *Log) resolveLocked(lsn uint64) (path string, fileStart uint64, err error) {
	if lsn > l.start {
		return l.path, l.start, nil
	}
	return "", 0, fmt.Errorf("%w (LSN %d, earliest retained %d)", ErrTruncated, lsn, l.start+1)
}

// Package replica implements WAL-shipping replication for the xixa
// server: a primary streams its write-ahead log to any number of
// followers over length-prefixed TCP frames, each follower replays the
// records continuously through the same applier that drives crash
// recovery, and a follower can be promoted to primary —
// fencing the old primary through a monotonically increasing epoch
// carried in every handshake. Every record is a whole commit, so a
// follower's log is always a committed prefix of the primary's.
//
// The protocol is deliberately small. The follower connects and sends
// Hello(epoch, lastLSN): the highest primary epoch it has ever
// witnessed and the last WAL record it holds. The primary replies
// Welcome(epoch) — preceded by fencing itself if the follower's epoch
// is newer than its own, because a newer epoch existing anywhere
// proves this primary was deposed — then streams Record(lsn, payload)
// frames from lastLSN+1, interleaving Heartbeat(flushedLSN) frames
// whenever it idles so the follower can bound its staleness. The
// follower appends each record to its own log verbatim (AppendRaw:
// same LSNs, same payloads, so the follower's log is byte-comparable
// to the primary's), applies it, and periodically fsyncs and reports
// Ack(durableLSN). If the follower's position predates the primary's
// earliest retained record (a checkpoint truncated it), the primary
// front-loads a Snapshot frame carrying its checkpoint, which the
// follower adopts before streaming on — at start, or mid-life by
// replacing its server in place.
//
// Every frame is uint32 length + uint32 CRC-32C over a one-byte type
// and the body. A stream that desyncs — severed mid-frame, a byte
// dropped or duplicated by a faulty middlebox — fails the CRC, the
// follower drops the connection, and the reconnect (exponential
// backoff, full jitter) re-handshakes from its last durable LSN. The
// LSN-continuity check on append makes redelivery idempotent and
// turns any gap into a reconnect, so no fault short of disk loss can
// silently lose or duplicate a record.
package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: uint32 payload length, uint32 CRC-32C of the payload,
// payload = 1 type byte + body.
const (
	frameHeaderLen = 8
	// maxFrameLen bounds a frame: larger than any WAL record
	// (wal.maxRecordLen is 1<<28) with room for snapshot payloads.
	maxFrameLen = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type msgType byte

const (
	// msgHello (follower → primary): epoch u64, lastLSN u64, and a
	// fresh flag byte — set when the follower has no local state at
	// all, which forces a snapshot: the primary's image at LSN 0 (its
	// bootstrap seed) predates the log and is not replayable from
	// records alone.
	msgHello msgType = 1
	// msgWelcome (primary → follower): epoch u64, snapshot flag byte.
	// When the flag is set a msgSnapshot frame follows immediately.
	msgWelcome msgType = 2
	// msgSnapshot (primary → follower): checkpoint LSN u64, then the
	// checkpoint file bytes.
	msgSnapshot msgType = 3
	// msgRecord (primary → follower): LSN u64, then the WAL payload.
	msgRecord msgType = 4
	// msgHeartbeat (primary → follower): primary's flushed LSN u64.
	msgHeartbeat msgType = 5
	// msgAck (follower → primary): follower's durable LSN u64.
	msgAck msgType = 6
	// msgError (either direction): UTF-8 reason; the connection closes.
	msgError msgType = 7
)

// writeFrame appends one frame to w. The caller flushes: the primary
// batches records and flushes when its cursor catches up, the follower
// flushes every ack.
func writeFrame(w *bufio.Writer, t msgType, body []byte) error {
	var hdr [frameHeaderLen + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)+1))
	crc := crc32.Update(0, crcTable, []byte{byte(t)})
	crc = crc32.Update(crc, crcTable, body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads and CRC-verifies one frame. A mismatch means the
// stream desynced (severed, corrupted, or tampered bytes) — the caller
// must drop the connection; there is no resynchronizing a byte stream.
func readFrame(r *bufio.Reader) (msgType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrameLen {
		return 0, nil, fmt.Errorf("replica: frame length %d out of range", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return 0, nil, fmt.Errorf("replica: frame CRC mismatch (stream desynced)")
	}
	return msgType(payload[0]), payload[1:], nil
}

func u64Body(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func u64Pair(a, b uint64) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], a)
	binary.LittleEndian.PutUint64(buf[8:16], b)
	return buf[:]
}

func readU64(body []byte) (uint64, error) {
	if len(body) < 8 {
		return 0, fmt.Errorf("replica: short frame body (%d bytes)", len(body))
	}
	return binary.LittleEndian.Uint64(body[:8]), nil
}

// lsnPayload splits a msgRecord or msgSnapshot body.
func lsnPayload(body []byte) (uint64, []byte, error) {
	lsn, err := readU64(body)
	if err != nil {
		return 0, nil, err
	}
	return lsn, body[8:], nil
}

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
// Hello(epoch, lastLSN, fresh): the highest primary epoch it has ever
// witnessed, the last WAL record it holds, and whether it holds no
// state at all. The primary replies
// Welcome(epoch) — preceded by fencing itself if the follower's epoch
// is newer than its own, because a newer epoch existing anywhere
// proves this primary was deposed — then streams Record(lsn, payload)
// frames from lastLSN+1, interleaving Heartbeat(flushedLSN) frames
// whenever it idles so the follower can bound its staleness. The
// follower appends each record to its own log verbatim (AppendRaw:
// same LSNs, same payloads, so the follower's log is byte-comparable
// to the primary's), applies it, and periodically fsyncs and reports
// Ack(durableLSN). If the follower is fresh or its position predates
// the primary's earliest retained record (a checkpoint truncated it),
// the primary front-loads a Snapshot frame carrying its checkpoint,
// which the follower adopts before streaming on, replacing its server
// in place if it has one. Every connection, the first included, runs
// this one handshake.
//
// Every message is one wal frame (wal.WriteFrame, wal.ReadFrame): the
// log's uint32 length + uint32 CRC-32C, over a payload of one type
// byte and the body. A stream that desyncs — severed mid-frame, a byte
// dropped or duplicated by a faulty middlebox — fails the frame check,
// the follower drops the connection, and the reconnect (exponential
// backoff, full jitter) says hello again from its last durable LSN. The
// LSN-continuity check on append makes redelivery idempotent and
// turns any gap into a reconnect, so no fault short of disk loss can
// silently lose or duplicate a record.
package replica

import (
	"encoding/binary"
	"fmt"
	"io"

	"xixa/internal/wal"
)

// maxFrameLen bounds a message: larger than any WAL record
// (wal.maxRecordLen is 1<<28) with room for snapshot payloads.
const maxFrameLen = 1 << 30

type msgType byte

const (
	// msgHello (follower → primary), always 17 bytes: epoch u64,
	// lastLSN u64, and a fresh flag byte — set while the follower has
	// no server yet, which forces a snapshot: the primary's image at
	// LSN 0 (its bootstrap seed) predates the log and is not
	// replayable from records alone.
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

// message starts a frame payload: the type byte, then each of vals,
// with room for extra body bytes the caller appends. The caller writes
// it with wal.WriteFrame and flushes: the primary batches records and
// flushes when its cursor catches up, the follower flushes every ack.
func message(t msgType, extra int, vals ...uint64) []byte {
	b := make([]byte, 1, 1+8*len(vals)+extra)
	b[0] = byte(t)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// readFrame reads and checks one message. A failed check means the
// stream desynced (severed, corrupted, or tampered bytes) — the caller
// must drop the connection; there is no resynchronizing a byte stream.
func readFrame(r io.Reader) (msgType, []byte, error) {
	payload, err := wal.ReadFrame(r, maxFrameLen)
	if err != nil {
		return 0, nil, err
	}
	return msgType(payload[0]), payload[1:], nil
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

// Package persist makes the memory-only engines durable: a point-in-time
// snapshot file serialized through any index.Index's ordered Cursor, a
// segmented append-only write-ahead log, and a recovery path that rebuilds
// the keyspace by bulk-loading the newest valid snapshot and replaying the
// WAL records logged after it.
//
// On-disk layout of a data directory:
//
//	MANIFEST                  points at the current snapshot (text, atomic)
//	snap-<lsn16hex>.snap      snapshot of everything logged at LSN ≤ lsn
//	wal-<lsn16hex>.log        WAL segment whose first record has that LSN
//
// Both file kinds share one frame format: a 4-byte little-endian payload
// length, the payload, and a 4-byte CRC32-C of the payload. A frame that is
// short, over-long, or fails its CRC marks the end of usable data — in the
// newest WAL segment that is the torn tail a crash legitimately leaves
// behind, and recovery keeps every record before it; anywhere else it is
// corruption and recovery reports it instead of silently dropping data.
//
// Durability contract: write operations are logged after they apply
// (Redis-AOF style), so a crash loses at most the unsynced tail permitted
// by the fsync policy — nothing on FsyncAlways, nothing ACKNOWLEDGED on
// FsyncGroup (writers park on WAL.Commit until the group syncer's fsync
// covers their LSN), up to one group cycle past the DurableLSN watermark on
// FsyncAsync, up to a second of writes on FsyncEverySec, up to the OS flush
// interval on FsyncNo. Snapshots are
// written to a temp file, fsynced, and renamed, so a crashed snapshot never
// shadows a good older one; replay after a snapshot at LSN L applies only
// records with LSN > L, and every record type is idempotent, so a record
// landing both in the snapshot (a write that raced the snapshot cursor) and
// in the replayed tail converges to the same state.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FsyncPolicy says when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncEverySec flushes and fsyncs the WAL about once per second from a
	// background goroutine: a crash loses at most the last second of writes.
	// The Redis AOF default, and the default here.
	FsyncEverySec FsyncPolicy = iota
	// FsyncAlways fsyncs after every append: no acknowledged write is ever
	// lost, at the cost of one fsync per operation (FsyncGroup batches
	// them).
	FsyncAlways
	// FsyncNo leaves flushing to the OS: fastest, loses up to the kernel's
	// writeback interval on a crash (still nothing on a clean close).
	FsyncNo
	// FsyncGroup is group commit: appends only buffer the record, and a
	// single syncer goroutine flushes and fsyncs whenever unsynced records
	// exist. Records appended while an fsync is in flight wait for the next
	// one, so that fsync is the only batching window — no timer. Writers
	// that need durability park on their record's LSN via WAL.Commit and
	// are woken once the durable watermark passes it — one fsync
	// acknowledges everything appended during the one before it. An
	// acknowledged (Commit-returned) write is never lost; a writer waits
	// out at most the fsync in flight plus the one covering its record,
	// not one fsync per operation.
	FsyncGroup
	// FsyncAsync is group commit without the wait: the same syncer batches
	// fsyncs continuously, but callers are expected NOT to park on Commit —
	// they acknowledge immediately and expose the DurableLSN watermark
	// (WAIT/INFO style) so clients can see how far durability lags the ack.
	// A crash loses at most the records past the watermark, typically a few
	// milliseconds of writes rather than everysec's full second.
	FsyncAsync
)

// ParseFsyncPolicy maps the ctredis flag spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "everysec":
		return FsyncEverySec, nil
	case "no":
		return FsyncNo, nil
	case "group":
		return FsyncGroup, nil
	case "async":
		return FsyncAsync, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, everysec, no, group or async)", s)
}

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncEverySec:
		return "everysec"
	case FsyncNo:
		return "no"
	case FsyncGroup:
		return "group"
	case FsyncAsync:
		return "async"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Op is a WAL record type.
type Op uint8

const (
	// OpSet maps a key to a value within a set.
	OpSet Op = 1
	// OpDelete removes a key from a set.
	OpDelete Op = 2
	// OpFlushAll drops every set (mini-Redis FLUSHALL). Set and key are
	// empty.
	OpFlushAll Op = 3
	// OpPing is a replication-stream heartbeat: it carries the LSN of the
	// last record shipped on that stream (so an idle replica can still ack
	// and measure lag) and is never written to a WAL segment — it exists
	// only on the wire.
	OpPing Op = 4
)

// Record is one decoded WAL entry.
type Record struct {
	Op  Op
	LSN uint64
	Set string // namespace ("" for single-index stores)
	Key []byte // valid only until the next record is decoded
	Val uint64 // meaningful for OpSet only
}

// ErrCorrupt reports damage recovery cannot safely skip: a bad frame that
// is not the torn tail of the newest WAL segment, or a snapshot whose
// structure is inconsistent. Wrapped errors carry the file and offset.
var ErrCorrupt = errors.New("persist: corrupt data")

// castagnoli is the CRC32-C table shared by snapshot and WAL frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFrameLen bounds a declared frame length so a torn length prefix never
// forces a giant allocation; snapshot batches and WAL records are far
// smaller by construction.
const maxFrameLen = 1 << 26

// errTorn marks the point where a file stops being decodable: short frame,
// CRC mismatch, or an implausible length. The WAL reader converts it to a
// tolerated end-of-data on the newest segment and to ErrCorrupt elsewhere.
var errTorn = errors.New("persist: torn frame")

// writeFrame appends one length-prefixed CRC-framed payload to w.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(crc[:])
	return err
}

// frameSize is the on-disk size of a frame with an n-byte payload.
func frameSize(n int) int64 { return int64(n) + 8 }

// frameReader decodes frames from a byte stream, reusing one payload
// buffer. It distinguishes a clean end (io.EOF exactly at a frame
// boundary) from a torn frame (errTorn).
type frameReader struct {
	r   io.Reader
	buf []byte
	off int64 // byte offset of the NEXT frame, i.e. bytes cleanly consumed
}

// next returns the next frame's payload, valid until the following call.
// io.EOF means a clean end at a frame boundary; errTorn means the stream
// died mid-frame or the frame failed its CRC.
func (fr *frameReader) next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return nil, errTorn
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, errTorn
	}
	var crcb [4]byte
	if _, err := io.ReadFull(fr.r, crcb[:]); err != nil {
		return nil, errTorn
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc32.Checksum(fr.buf, castagnoli) {
		return nil, errTorn
	}
	fr.off += frameSize(len(fr.buf))
	return fr.buf, nil
}

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// takeUvarint decodes a uvarint from the front of b, returning the value
// and the remainder, or an error on malformed input. Only the minimal
// encoding appendUvarint writes is accepted (a padded one ends in a zero
// byte), so every decoded value has exactly one byte representation.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, errTorn
	}
	return v, b[n:], nil
}

// takeBytes slices n bytes off the front of b.
func takeBytes(b []byte, n uint64) ([]byte, []byte, error) {
	if uint64(len(b)) < n {
		return nil, nil, errTorn
	}
	return b[:n], b[n:], nil
}

// takeU64 decodes a little-endian uint64 off the front of b.
func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errTorn
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

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
// (Redis-AOF style), and one syncer goroutine per WAL flushes, fsyncs and
// rotates under every fsync policy; the policy is the syncer's cadence,
// and only FsyncAlways makes acknowledgements wait for it. A crash loses
// at most the unsynced tail the policy permits — nothing ACKNOWLEDGED on
// FsyncAlways (writers park on WAL.Commit until the syncer's fsync covers
// their LSN), up to a second of writes past the DurableLSN watermark on
// FsyncEverySec, up to the OS flush interval on FsyncNo. Snapshots are
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

// FsyncPolicy says when WAL appends reach stable storage, and whether a
// server acknowledges a write before they do. Every policy runs on the
// same syncer goroutine; the policy is its cadence. These are Redis's
// three appendfsync values.
type FsyncPolicy int

const (
	// FsyncEverySec fsyncs about once per second: a crash loses at most
	// the last second of writes, and DurableLSN reports how far durability
	// lags the acks. The Redis AOF default, and the default here.
	FsyncEverySec FsyncPolicy = iota
	// FsyncAlways is group commit: the syncer fsyncs as soon as records
	// are unsynced, and everything appended while that fsync is in flight
	// waits for the next one, so the fsync itself is the only batching
	// window — no timer. A server acknowledges a write only once it is
	// durable: writers park on their record's LSN via WAL.Commit and are
	// woken once the durable watermark passes it, so no acknowledged write
	// is ever lost. Redis's appendfsync always likewise fsyncs once per
	// event-loop pass, before the replies go out, not once per write.
	FsyncAlways
	// FsyncNo leaves flushing to the OS: fastest, loses up to the kernel's
	// writeback interval on a crash (still nothing on a clean close).
	FsyncNo
)

// policyNames holds the flag spelling of each policy, indexed by
// FsyncPolicy.
var policyNames = [...]string{FsyncEverySec: "everysec", FsyncAlways: "always", FsyncNo: "no"}

// ParseFsyncPolicy maps the ctredis flag spelling to a policy. "group" is
// a second spelling of "always", the group-commit schedule it runs.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	if s == "group" {
		return FsyncAlways, nil
	}
	for p, name := range policyNames {
		if name == s {
			return FsyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, everysec or no)", s)
}

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	if p.known() {
		return policyNames[p]
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// AcksDurable reports whether a server under this policy acknowledges a
// write only after WAL.Commit returns for it.
func (p FsyncPolicy) AcksDurable() bool { return p == FsyncAlways }

func (p FsyncPolicy) known() bool { return p >= 0 && int(p) < len(policyNames) }

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

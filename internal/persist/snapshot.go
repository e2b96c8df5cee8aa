package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file layout:
//
//	header (16 bytes, unframed): magic "CTSNAP1\x00" + LSN (u64 LE)
//	set frame:      0x01, uvarint(len(name)), name, u64 reserved (written 0)
//	kv batch frame: 0x02, uvarint(n), n × { uvarint(len(key)), key, u64 val }
//	trailer frame:  0xFF, u64 total kv count, u64 LSN (must match header)
//
// A snapshot is valid only when the header magic matches, the header LSN
// matches the filename, and the trailer's count and LSN check out — an
// interrupted write (which the temp-file rename normally prevents from
// ever being visible) reads as invalid, and recovery falls back to the
// next older snapshot.

const (
	snapMagic     = "CTSNAP1\x00"
	snapHeaderLen = 16

	frameSet     = 0x01
	frameKVBatch = 0x02
	frameTrailer = 0xFF

	// snapBatchKVs bounds how many key-value pairs share one frame: enough
	// to amortize the 8-byte frame overhead and the CRC, small enough that
	// the reader's frame buffer stays modest.
	snapBatchKVs = 512
)

// snapName returns the snapshot filename for a given LSN.
func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// parseSnapName extracts the LSN from a snapshot filename.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	return lsn, err == nil
}

// KeyValueCursor is the subset of index.Cursor the snapshot writer drives:
// Seek(nil) then Next until invalid. It is satisfied by index.Cursor, kept
// local so the writer has no opinion about the rest of the index API.
type KeyValueCursor interface {
	Seek(start []byte) bool
	Valid() bool
	Key() []byte
	Value() uint64
	Next() bool
	Close()
}

// SetSnapshot names one set's cursor for WriteSnapshot. The writer takes
// ownership of the cursor and closes it.
type SetSnapshot struct {
	Set string
	// Cursor iterates the set in key order. For a consistent point-in-time
	// image the caller either quiesces writers or uses a concurrent-safe
	// engine; keys written while the cursor runs may or may not appear, and
	// recovery converges either way because their WAL records replay
	// idempotently (see the package comment).
	Cursor KeyValueCursor
}

// WriteSnapshot serializes the given sets at the given LSN into dir,
// atomically: the data is staged in a temp file, fsynced, renamed to
// snap-<lsn>.snap, and the directory is fsynced; then the MANIFEST is
// pointed at it the same way. Cursors are closed before return. It returns
// the final snapshot path.
func WriteSnapshot(dir string, lsn uint64, sets []SetSnapshot) (string, error) {
	defer func() {
		for _, s := range sets {
			if s.Cursor != nil {
				s.Cursor.Close()
			}
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, snapName(lsn))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	// Best-effort cleanup on any failure path; harmless after success.
	defer os.Remove(tmp)
	defer f.Close()

	bw := bufio.NewWriterSize(f, 1<<16)
	if err := encodeSnapshot(bw, lsn, sets); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := f.Sync(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	if err := writeManifest(dir, snapName(lsn), lsn); err != nil {
		return "", err
	}
	return final, nil
}

// SnapshotSet is one decoded snapshot section: the whole set's keys and
// values in key order, ready for one index.BulkLoad call (so an untrained
// range router sees the complete stream and derives balanced boundaries
// from it).
type SnapshotSet struct {
	Set  string
	Keys [][]byte
	Vals []uint64
}

// readSnapshot decodes and validates a snapshot file. Any structural
// problem — bad magic, LSN mismatch, torn frame, missing or inconsistent
// trailer — returns an error wrapping ErrCorrupt; the caller treats the
// file as invalid and falls back.
//
// The set frame's reserved u64 once held a key-count hint, and older images
// still carry one. It is read past whatever it says: len(Keys) is exact,
// and a damaged or hostile image could name any size there.
func readSnapshot(path string) (lsn uint64, sets []SnapshotSet, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	lsn, sets, err = decodeSnapshot(f, path)
	if err != nil {
		return 0, nil, err
	}
	if nameLSN, ok := parseSnapName(filepath.Base(path)); !ok || nameLSN != lsn {
		return 0, nil, fmt.Errorf("%w: %s: header LSN %d does not match filename", ErrCorrupt, path, lsn)
	}
	return lsn, sets, nil
}

// decodeSnapshot decodes a snapshot image from r; name labels errors (a
// file path, or "snapshot stream" for a replication full sync). Only the
// forms encodeSnapshot writes decode: bytes left in a frame after its last
// field, or a kv batch with no pairs, are ErrCorrupt.
func decodeSnapshot(r io.Reader, name string) (lsn uint64, sets []SnapshotSet, err error) {
	path := name
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	if !bytes.Equal(hdr[:8], []byte(snapMagic)) {
		return 0, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	lsn = binary.LittleEndian.Uint64(hdr[8:])

	fr := frameReader{r: br}
	var cur *SnapshotSet
	total := uint64(0)
	sealed := false
	for {
		payload, ferr := fr.next()
		if ferr == io.EOF {
			if !sealed {
				return 0, nil, fmt.Errorf("%w: %s: missing trailer", ErrCorrupt, path)
			}
			return lsn, sets, nil
		}
		if ferr != nil {
			return 0, nil, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, path, snapHeaderLen+fr.off)
		}
		if sealed {
			return 0, nil, fmt.Errorf("%w: %s: data after trailer", ErrCorrupt, path)
		}
		if len(payload) == 0 {
			return 0, nil, fmt.Errorf("%w: %s: empty frame", ErrCorrupt, path)
		}
		kind, rest := payload[0], payload[1:]
		switch kind {
		case frameSet:
			nameLen, rest, err := takeUvarint(rest)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %s: bad set frame", ErrCorrupt, path)
			}
			name, rest, err := takeBytes(rest, nameLen)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %s: bad set frame", ErrCorrupt, path)
			}
			if _, rest, err = takeU64(rest); err != nil || len(rest) != 0 {
				return 0, nil, fmt.Errorf("%w: %s: bad set frame", ErrCorrupt, path)
			}
			sets = append(sets, SnapshotSet{Set: string(name)})
			cur = &sets[len(sets)-1]
		case frameKVBatch:
			if cur == nil {
				return 0, nil, fmt.Errorf("%w: %s: kv batch before any set frame", ErrCorrupt, path)
			}
			n, rest, err := takeUvarint(rest)
			if err != nil || n == 0 {
				return 0, nil, fmt.Errorf("%w: %s: bad kv batch", ErrCorrupt, path)
			}
			for i := uint64(0); i < n; i++ {
				var klen uint64
				var kb []byte
				var val uint64
				if klen, rest, err = takeUvarint(rest); err == nil {
					if kb, rest, err = takeBytes(rest, klen); err == nil {
						val, rest, err = takeU64(rest)
					}
				}
				if err != nil {
					return 0, nil, fmt.Errorf("%w: %s: bad kv batch", ErrCorrupt, path)
				}
				// The frame buffer is reused; keys must be copied out.
				cur.Keys = append(cur.Keys, append([]byte(nil), kb...))
				cur.Vals = append(cur.Vals, val)
				total++
			}
			if len(rest) != 0 {
				return 0, nil, fmt.Errorf("%w: %s: bad kv batch", ErrCorrupt, path)
			}
		case frameTrailer:
			count, rest, err := takeU64(rest)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %s: bad trailer", ErrCorrupt, path)
			}
			tlsn, rest, err := takeU64(rest)
			if err != nil || len(rest) != 0 {
				return 0, nil, fmt.Errorf("%w: %s: bad trailer", ErrCorrupt, path)
			}
			if count != total || tlsn != lsn {
				return 0, nil, fmt.Errorf("%w: %s: trailer mismatch (count %d vs %d, lsn %d vs %d)",
					ErrCorrupt, path, count, total, tlsn, lsn)
			}
			sealed = true
		default:
			return 0, nil, fmt.Errorf("%w: %s: unknown frame kind %#x", ErrCorrupt, path, kind)
		}
	}
}

// listSnapshots returns the snapshot LSNs present in dir, descending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var lsns []uint64
	for _, e := range ents {
		if lsn, ok := parseSnapName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns, nil
}

// --- MANIFEST ---
//
// The manifest is a two-line text file naming the current snapshot:
//
//	ctpersist v1
//	snapshot snap-<lsn16hex>.snap lsn <decimal>
//
// It is advisory: recovery prefers it (O(1) instead of probing every
// snapshot), but a missing, stale, or corrupt manifest only costs a
// directory scan — the snapshot trailer remains the source of validity.

const manifestName = "MANIFEST"

func writeManifest(dir, snap string, lsn uint64) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	body := fmt.Sprintf("ctpersist v1\nsnapshot %s lsn %d\n", snap, lsn)
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readManifest returns the manifest's snapshot LSN, or ok=false when the
// manifest is missing or unparseable (never an error: it is advisory).
func readManifest(dir string) (lsn uint64, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, false
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[0] != "ctpersist v1" {
		return 0, false
	}
	var snap string
	if _, err := fmt.Sscanf(lines[1], "snapshot %s lsn %d", &snap, &lsn); err != nil {
		return 0, false
	}
	nameLSN, okName := parseSnapName(snap)
	if !okName || nameLSN != lsn {
		return 0, false
	}
	return lsn, true
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WAL segment layout:
//
//	header (16 bytes, unframed): magic "CTWAL1\x00\x00" + first LSN (u64 LE)
//	record frame: op (u8), LSN (u64 LE), uvarint(len(set)), set,
//	              uvarint(len(key)), key, [val (u64 LE) when op == OpSet]
//
// Segments are named wal-<firstLSN 16hex>.log and rotate at SegmentBytes;
// LSNs increase by one per record across segment boundaries, so segment i
// covers exactly [first_i, first_{i+1}) and compaction can drop a segment
// by comparing its successor's first LSN against the snapshot LSN without
// reading it.

const (
	walMagic     = "CTWAL1\x00\x00"
	walHeaderLen = 16

	// DefaultSegmentBytes rotates WAL segments at 64 MiB: large enough
	// that rotation cost is noise, small enough that compaction after a
	// snapshot reclaims space promptly.
	DefaultSegmentBytes = 64 << 20
)

// ErrWALClosed reports an append to a closed WAL.
var ErrWALClosed = errors.New("persist: WAL closed")

func walName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.log", firstLSN) }

func parseWalName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	return lsn, err == nil
}

// WALOptions configure OpenWAL. The zero value means FsyncEverySec and
// DefaultSegmentBytes.
type WALOptions struct {
	Policy FsyncPolicy
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// FloorLSN guarantees the first LSN assigned after open is strictly
	// greater than it. Pass the recovery Result's LastLSN: a durable
	// snapshot can be AHEAD of the on-disk WAL after a crash (the snapshot
	// fsyncs immediately; an everysec/no-policy WAL tail may not have made
	// it), and deriving the next LSN from the WAL tail alone would then
	// reuse LSNs the snapshot already covers — acknowledged post-restart
	// writes would be silently skipped by the next recovery's LSN filter.
	FloorLSN uint64
	// FsyncFn overrides how a segment file reaches stable storage (default
	// (*os.File).Sync). A seam for fault injection in tests and for
	// platforms preferring fdatasync.
	FsyncFn func(*os.File) error
}

// WAL is a segmented append-only log. Appends are safe for concurrent use;
// each is assigned the next LSN under the WAL's mutex, so LSN order is the
// order records reach the log.
type WAL struct {
	mu      sync.Mutex
	dir     string
	opts    WALOptions
	f       *os.File
	bw      *bufio.Writer
	written int64 // bytes in the current segment, header included
	next    uint64
	encBuf  []byte
	closed  bool
	syncErr error // sticky write/fsync failure (see failLocked)

	durable  uint64 // highest LSN known to be fsynced to stable storage
	appended int64  // cumulative record bytes this session (auto-rewrite budget input)
	finished bool   // Close ran its final sync: Commit waiters must not park

	// commitCond (on mu) wakes Commit waiters whenever durable advances, a
	// sticky sync error lands, or Close finishes — every parked writer
	// re-checks its LSN against the watermark, so one fsync releases a whole
	// pipeline and one failure fans out to all of them.
	commitCond *sync.Cond
	// onAppend, when set, observes every appended record — called under the
	// WAL mutex with the record's LSN and its complete wire frame, so
	// observation order is exactly LSN order (the property a replication
	// fan-out needs). The frame aliases the WAL's encode buffer and must be
	// copied if retained.
	onAppend func(op Op, lsn uint64, frame []byte)

	met WALMetrics // always-on durability histograms (see walmetrics.go)

	stop chan struct{} // everysec flusher shutdown
	done chan struct{}

	syncCond   *sync.Cond    // wakes the group syncer when unsynced appends exist
	syncerDone chan struct{} // closed when the group syncer exits
}

// fsync pushes f to stable storage through the configured seam, recording
// the duration — every fsync the WAL issues (policy syncs, rotations, the
// final close) lands in the same histogram.
func (w *WAL) fsync(f *os.File) error {
	start := time.Now()
	var err error
	if w.opts.FsyncFn != nil {
		err = w.opts.FsyncFn(f)
	} else {
		err = f.Sync()
	}
	w.met.Fsync.RecordDuration(int64(time.Since(start)))
	return err
}

// OpenWAL opens (creating if needed) the WAL in dir for appending. An
// existing newest segment is scanned to find the next LSN, and a torn tail
// left by a crash is truncated away — appending after a torn record would
// hide everything behind it from replay, so the write path repairs what
// the read path (Recover) merely tolerates.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, next: 1, met: newWALMetrics()}
	w.commitCond = sync.NewCond(&w.mu)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if w.next <= opts.FloorLSN {
			w.next = opts.FloorLSN + 1
		}
		if err := w.createSegment(w.next); err != nil {
			return nil, err
		}
	} else {
		if err := w.adoptSegment(segs[len(segs)-1]); err != nil {
			return nil, err
		}
		if w.next <= opts.FloorLSN {
			// LSNs may jump forward within the adopted segment; the segment
			// still covers [its first LSN, the next segment's), so replay
			// and compaction are unaffected by the gap.
			w.next = opts.FloorLSN + 1
		}
	}
	// Everything on disk at open is the recovery baseline: durable by
	// definition as far as this session's acknowledgements are concerned.
	w.durable = w.next - 1
	switch opts.Policy {
	case FsyncEverySec:
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	case FsyncGroup, FsyncAsync:
		w.syncCond = sync.NewCond(&w.mu)
		w.syncerDone = make(chan struct{})
		go w.groupSyncLoop()
	}
	return w, nil
}

// adoptSegment repairs and reopens the newest existing segment for append:
// it scans the records to find the last assigned LSN, truncates anything
// after the last intact frame, and positions the writer at the new end.
func (w *WAL) adoptSegment(seg walSegment) error {
	f, err := os.OpenFile(filepath.Join(w.dir, seg.name), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	first, lastLSN, goodOff, _, err := scanSegment(f, seg.lsn, nil)
	if err != nil {
		f.Close()
		return err
	}
	if goodOff < walHeaderLen {
		// Header itself missing or torn: rewrite it in place.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		var hdr [walHeaderLen]byte
		copy(hdr[:8], walMagic)
		binary.LittleEndian.PutUint64(hdr[8:], seg.lsn)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return err
		}
		goodOff = walHeaderLen
		first, lastLSN = seg.lsn, seg.lsn-1
	} else if err := f.Truncate(goodOff); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.next = lastLSN + 1
	if lastLSN < first {
		w.next = first // empty segment: the header names the next LSN
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.written = goodOff
	return nil
}

// createSegment starts a fresh segment whose first record will be firstLSN.
func (w *WAL) createSegment(firstLSN uint64) error {
	path := filepath.Join(w.dir, walName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := w.fsync(f); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.written = walHeaderLen
	return nil
}

// Append logs one record and returns its LSN. Durability depends on the
// fsync policy; rotation to a new segment happens after the append that
// crosses SegmentBytes, so a record never spans segments.
func (w *WAL) Append(op Op, set string, key []byte, val uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	lsn := w.next
	frame := AppendRecordFrame(w.encBuf[:0], op, lsn, set, key, val)
	w.encBuf = frame
	if _, err := w.bw.Write(frame); err != nil {
		// A partial frame may already be in the file: anything appended
		// behind it would be hidden from replay.
		return 0, w.failLocked(err)
	}
	w.next++
	w.written += int64(len(frame))
	w.appended += int64(len(frame))
	if w.onAppend != nil {
		// Under w.mu: fan-out subscribers see records in LSN order.
		w.onAppend(op, lsn, frame)
	}
	switch w.opts.Policy {
	case FsyncAlways:
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncGroup, FsyncAsync:
		// The record is only buffered; wake the group syncer and return.
		// Rotation is the syncer's job under these policies — it may be
		// fsyncing w.f outside the mutex right now, so nothing else is
		// allowed to close the segment file out from under it.
		w.syncCond.Signal()
		return lsn, nil
	}
	if w.written >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the current segment (flush + fsync, so the boundary
// is durable under every policy) and starts the next one. Any failure
// poisons the WAL.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.failLocked(err)
	}
	if err := w.createSegment(w.next); err != nil {
		return w.failLocked(err)
	}
	return nil
}

// syncLocked flushes and fsyncs the current segment and advances the
// durable watermark. A poisoned WAL refuses: after a failed fsync the
// kernel may have dropped the dirty pages, so a later fsync that succeeds
// proves nothing about the records the failed one covered.
func (w *WAL) syncLocked() error {
	if w.syncErr != nil {
		return w.syncErr
	}
	if err := w.bw.Flush(); err != nil {
		return w.failLocked(err)
	}
	if err := w.fsync(w.f); err != nil {
		return w.failLocked(err)
	}
	if w.next-1 > w.durable {
		w.durable = w.next - 1
		w.commitCond.Broadcast()
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the current segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	return w.syncLocked()
}

// DurableLSN returns the highest LSN known to have reached stable storage —
// the async-ack watermark: a crash can lose only records past it.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// AppendedBytes returns the cumulative record bytes appended this session,
// monotone across rotations — callers diff it against a saved watermark to
// estimate the replay cost accumulated since their last snapshot.
func (w *WAL) AppendedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Commit blocks until every record with LSN ≤ lsn is durable, and is the
// park-on-LSN half of group commit: under FsyncGroup/FsyncAsync the caller
// sleeps on the commit condition while the syncer batches fsyncs, so N
// pipelined writers are released by one fsync instead of issuing N. Under
// the other policies it syncs inline when the watermark hasn't caught up
// (a durability barrier that works everywhere, e.g. for WAIT). A sticky
// sync error fails every parked and future Commit; after Close, waiters
// whose LSN the final sync did not cover get ErrWALClosed.
//
// Callers must not hold locks that the append path needs while parked —
// in miniredis terms: never call Commit with cmdMu or a per-stripe write
// mutex held, or the writers that would have shared this fsync deadlock
// behind the barrier (ctvet's lockorder analyzer enforces this).
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn >= w.next {
		return fmt.Errorf("persist: Commit(%d) past last assigned LSN %d", lsn, w.next-1)
	}
	if w.durable < lsn {
		// Only waits are samples: a Commit the watermark already covers
		// costs nothing and would drown the park distribution in zeros.
		start := time.Now()
		defer func() { w.met.CommitWait.RecordDuration(int64(time.Since(start))) }()
	}
	for w.durable < lsn {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.finished {
			return ErrWALClosed
		}
		if w.syncCond == nil {
			// No syncer under this policy: make the tail durable inline.
			if err := w.syncLocked(); err != nil {
				return err
			}
			continue
		}
		w.commitCond.Wait()
	}
	return nil
}

// SetOnAppend installs the append observer (see the field comment). Call
// it before the first Append — typically between opening the WAL and
// starting to serve writes; installing it while appends are in flight is a
// race.
func (w *WAL) SetOnAppend(fn func(op Op, lsn uint64, frame []byte)) {
	w.mu.Lock()
	w.onAppend = fn
	w.mu.Unlock()
}

// LSN returns the last assigned LSN (0 before the first append).
func (w *WAL) LSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// Dir returns the WAL's data directory.
func (w *WAL) Dir() string { return w.dir }

// Close flushes, fsyncs and closes the WAL. A cleanly closed WAL loses
// nothing under any fsync policy. Background goroutines are stopped before
// the segment file is touched, so a group sync pending at Close completes
// (its parked writers are released with their durability intact) — or, if
// the final sync fails, every parked writer gets the error; either way no
// waiter is left parked and no goroutine leaks.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.syncCond != nil {
		w.syncCond.Signal()
	}
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	if w.syncerDone != nil {
		// The syncer drains everything buffered (it may be mid-fsync on w.f
		// right now, which is why the file must not be closed yet) and exits
		// once durable has caught up or a sync error poisoned the WAL.
		<-w.syncerDone
	}
	w.mu.Lock()
	// A poisoned WAL skips the final sync (syncLocked returns the sticky
	// error) so the watermark never advances past a failed fsync.
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = w.failLocked(cerr) // late Commit callers must not report durability
	}
	w.finished = true
	w.commitCond.Broadcast()
	w.mu.Unlock()
	return err
}

// flushLoop is the FsyncEverySec background flusher.
func (w *WAL) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				// A failure poisons the WAL (failLocked), so the next Append
				// surfaces it instead of accepting writes that cannot
				// become durable.
				w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// groupSyncLoop is the FsyncGroup/FsyncAsync syncer: one goroutine that
// flushes and fsyncs as soon as it sees unsynced records, advances the
// durable watermark, and wakes every Commit waiter at or below it. There
// is no artificial delay: the fsync itself runs OUTSIDE the WAL mutex
// against a captured *os.File, so appends keep buffering (and the fan-out
// keeps publishing) while the disk works, and everything appended during
// one fsync forms the next batch — the in-flight fsync is the only
// batching window, as with PostgreSQL's default commit_delay = 0. The
// syncer owns rotation under these policies, which is what makes the
// captured file safe: nothing else closes w.f while the syncer lives. It
// must never take locks outside the WAL — in particular no miniredis
// stripe/write mutexes — since writers park on its progress while holding
// none (ctvet's lockorder analyzer enforces the protocol).
func (w *WAL) groupSyncLoop() {
	defer close(w.syncerDone)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.durable == w.next-1 && !w.closed && w.syncErr == nil {
			w.syncCond.Wait()
		}
		if w.syncErr != nil || w.durable == w.next-1 {
			return // poisoned, or closed and fully durable: Close finishes up
		}
		if err := w.bw.Flush(); err != nil {
			w.failLocked(err)
			return
		}
		// Capture the batch boundary and the file, then fsync unlocked.
		target := w.next - 1
		f := w.f
		w.mu.Unlock()
		err := w.fsync(f)
		w.mu.Lock()
		if err != nil {
			w.failLocked(err)
			return
		}
		if target > w.durable {
			w.met.BatchSize.Record(target - w.durable)
			w.durable = target
			w.commitCond.Broadcast()
		}
		if w.written >= w.opts.SegmentBytes {
			// rotateLocked re-syncs inline (records may have landed during
			// the unlocked fsync), seals the segment and opens the next one.
			if w.rotateLocked() != nil {
				return
			}
		}
	}
}

// failLocked records the sticky I/O error, fails every parked writer and
// returns the sticky error. Called under w.mu by every path that writes or
// syncs, under every policy. After it, Append, Commit, Sync and Close
// return the error forever: a WAL that cannot promise durability must not
// keep acknowledging.
func (w *WAL) failLocked(err error) error {
	if w.syncErr == nil {
		w.syncErr = err
	}
	w.commitCond.Broadcast()
	return w.syncErr
}

type walSegment struct {
	lsn  uint64
	name string
}

// listSegments returns dir's WAL segments ascending by first LSN.
func listSegments(dir string) ([]walSegment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []walSegment
	for _, e := range ents {
		if lsn, ok := parseWalName(e.Name()); ok {
			segs = append(segs, walSegment{lsn: lsn, name: e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].lsn < segs[j].lsn })
	return segs, nil
}

// decodeRecord parses one WAL frame payload into rec. The key aliases the
// payload buffer and is valid only until the next frame is read. Only the
// exact bytes AppendRecordFrame writes decode: trailing bytes or a padded
// length make the payload undecodable.
func decodeRecord(payload []byte, rec *Record) error {
	if len(payload) < 9 {
		return errTorn
	}
	op := Op(payload[0])
	if op != OpSet && op != OpDelete && op != OpFlushAll && op != OpPing {
		return errTorn
	}
	rec.Op = op
	rec.LSN = binary.LittleEndian.Uint64(payload[1:9])
	rest := payload[9:]
	setLen, rest, err := takeUvarint(rest)
	if err != nil {
		return err
	}
	setB, rest, err := takeBytes(rest, setLen)
	if err != nil {
		return err
	}
	rec.Set = string(setB)
	keyLen, rest, err := takeUvarint(rest)
	if err != nil {
		return err
	}
	rec.Key, rest, err = takeBytes(rest, keyLen)
	if err != nil {
		return err
	}
	rec.Val = 0
	if op == OpSet {
		if rec.Val, rest, err = takeU64(rest); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return errTorn
	}
	return nil
}

// scanSegment reads a segment from its start, calling apply (when non-nil)
// for each intact record. It returns the header's first LSN, the last
// intact record's LSN (first-1 when there are none), the byte offset just
// past the last intact frame, and whether the scan stopped at a torn frame
// rather than a clean end. A missing or damaged header (including a first
// LSN disagreeing with the filename) reports torn with goodOff 0. apply
// errors abort the scan and are returned verbatim.
func scanSegment(r io.Reader, nameLSN uint64, apply func(*Record) error) (first, last uint64, goodOff int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [walHeaderLen]byte
	if _, herr := io.ReadFull(br, hdr[:]); herr != nil {
		return nameLSN, nameLSN - 1, 0, true, nil
	}
	if !bytes.Equal(hdr[:8], []byte(walMagic)) {
		return nameLSN, nameLSN - 1, 0, true, nil
	}
	first = binary.LittleEndian.Uint64(hdr[8:])
	if first != nameLSN {
		return nameLSN, nameLSN - 1, 0, true, nil
	}
	return scanSegmentRecords(br, first, apply)
}

// scanSegmentRecords is scanSegment after the header: it decodes frames
// until a clean EOF or a torn frame.
func scanSegmentRecords(br io.Reader, first uint64, apply func(*Record) error) (_, last uint64, goodOff int64, torn bool, err error) {
	fr := frameReader{r: br}
	last = first - 1
	var rec Record
	for {
		payload, ferr := fr.next()
		if ferr == io.EOF {
			return first, last, walHeaderLen + fr.off, false, nil
		}
		if ferr != nil {
			return first, last, walHeaderLen + fr.off, true, nil
		}
		if derr := decodeRecord(payload, &rec); derr != nil {
			// An intact frame with an undecodable payload: same trust level
			// as a CRC failure — treat as the end of usable data.
			return first, last, walHeaderLen + fr.off - frameSize(len(payload)), true, nil
		}
		last = rec.LSN
		if apply != nil {
			if aerr := apply(&rec); aerr != nil {
				return first, last, walHeaderLen + fr.off, false, aerr
			}
		}
	}
}

// replayWAL applies every record with LSN > after, in LSN order, across
// all segments in dir. A torn tail on the NEWEST segment is the normal
// crash residue and ends replay cleanly; a torn frame in any older segment
// means records known to exist (the next segment's) would be skipped, so
// it is reported as ErrCorrupt instead. Segments entirely at or below
// `after` are skipped without being read.
func replayWAL(dir string, after uint64, apply func(*Record) error) (last uint64, replayed int, torn bool, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, 0, false, err
	}
	if len(segs) > 0 && segs[0].lsn > after+1 {
		// The earliest surviving segment starts beyond what the snapshot
		// covers: records in (after, segs[0].lsn) existed once (compaction
		// only drops a segment when a snapshot at or past its end is
		// durable) but are in neither the snapshot we recovered nor the
		// WAL — typically the newest snapshot was damaged and recovery
		// fell back past what compaction assumed. Serving the survivors as
		// if they were everything would silently report massive data loss
		// as success.
		return after, 0, false, fmt.Errorf(
			"%w: WAL starts at LSN %d but recovery has state only through LSN %d (snapshot covering the gap is missing or invalid)",
			ErrCorrupt, segs[0].lsn, after)
	}
	last = after
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].lsn <= after+1 {
			continue // every record in this segment is ≤ after
		}
		f, err := os.Open(filepath.Join(dir, seg.name))
		if err != nil {
			return last, replayed, false, err
		}
		_, segLast, _, segTorn, err := scanSegment(f, seg.lsn, func(rec *Record) error {
			if rec.LSN <= after {
				return nil
			}
			if err := apply(rec); err != nil {
				return err
			}
			replayed++
			return nil
		})
		f.Close()
		if err != nil {
			return last, replayed, false, err
		}
		if segLast > last {
			last = segLast
		}
		if segTorn {
			if i != len(segs)-1 {
				return last, replayed, false, fmt.Errorf(
					"%w: WAL segment %s has a torn frame but newer segments exist", ErrCorrupt, seg.name)
			}
			return last, replayed, true, nil
		}
	}
	return last, replayed, false, nil
}

// RemoveObsolete deletes snapshots older than keepLSN and WAL segments
// whose every record is already covered by the snapshot at keepLSN (the
// segment's successor starts at or below keepLSN+1). The newest segment is
// always kept — it is the live append target. Called after a successful
// snapshot; failures are returned but the store stays correct without
// compaction, only larger.
func RemoveObsolete(dir string, keepLSN uint64) error {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, lsn := range snaps {
		if lsn < keepLSN {
			if err := os.Remove(filepath.Join(dir, snapName(lsn))); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].lsn <= keepLSN+1 {
			if err := os.Remove(filepath.Join(dir, seg.name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

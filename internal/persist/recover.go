package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/index"
)

// Factory builds the index for one recovered set. keys is the set's
// decoded snapshot key count — exact, unlike the hint the snapshot
// records, which is never trusted as an allocation size — and 0 for sets
// born from WAL replay alone.
type Factory func(set string, keys int) index.Index

// Result reports what Recover rebuilt.
type Result struct {
	// Sets maps set name → rebuilt index. Empty (not nil) when the
	// directory holds no data.
	Sets map[string]index.Index
	// SnapshotLSN is the LSN of the snapshot that seeded the state (0 when
	// recovery started from an empty state).
	SnapshotLSN uint64
	// SnapshotPath is the snapshot file used, "" when none.
	SnapshotPath string
	// SnapshotKeys is the number of key-value pairs bulk-loaded from it.
	SnapshotKeys int
	// LastLSN is the highest LSN observed in the WAL (or the snapshot LSN
	// when the WAL adds nothing); the next append after recovery gets
	// LastLSN+1.
	LastLSN uint64
	// Replayed is the number of WAL records applied on top of the snapshot.
	Replayed int
	// TornTail reports that the newest WAL segment ended in a torn frame —
	// the normal residue of a crash; everything before it was applied.
	TornTail bool
}

// Recover rebuilds a data directory's state: it loads the newest VALID
// snapshot — each set bulk-loaded through index.BulkLoad, so a sharded
// index with an untrained range router derives its shard boundaries from
// the full snapshot stream — then replays every WAL record with LSN above
// the snapshot's, in order. Invalid snapshots (torn, trailer missing,
// checksum-damaged) are skipped in favour of the next older one; the
// MANIFEST is consulted first but never trusted over the file's own
// trailer. A missing or empty directory recovers to the empty state.
//
// Recover is read-only: it never truncates or deletes. Open the WAL for
// appending (OpenWAL repairs the torn tail) only after recovery.
func Recover(dir string, factory Factory) (*Result, error) {
	res := &Result{Sets: map[string]index.Index{}}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return res, nil
	}

	// 1. Pick the newest valid snapshot: manifest's candidate first, then
	// every snapshot in the directory, newest to oldest.
	var candidates []uint64
	if lsn, ok := readManifest(dir); ok {
		candidates = append(candidates, lsn)
	}
	all, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for _, lsn := range all {
		if len(candidates) == 0 || lsn != candidates[0] {
			candidates = append(candidates, lsn)
		}
	}
	var sets []SnapshotSet
	for _, lsn := range candidates {
		path := filepath.Join(dir, snapName(lsn))
		slsn, ssets, err := readSnapshot(path)
		if err != nil {
			continue // invalid or unreadable: fall back to an older one
		}
		res.SnapshotLSN, res.SnapshotPath, sets = slsn, path, ssets
		break
	}

	// 2. Bulk-load the snapshot, one BulkLoad per set over its whole
	// stream.
	for _, s := range sets {
		ix := factory(s.Set, len(s.Keys))
		if _, err := index.BulkLoad(ix, s.Keys, s.Vals); err != nil {
			return nil, fmt.Errorf("persist: bulk-loading snapshot set %q: %w", s.Set, err)
		}
		res.Sets[s.Set] = ix
		res.SnapshotKeys += len(s.Keys)
	}

	// 3. Replay the WAL tail.
	last, replayed, torn, err := replayWAL(dir, res.SnapshotLSN, func(rec *Record) error {
		switch rec.Op {
		case OpSet:
			ix, ok := res.Sets[rec.Set]
			if !ok {
				ix = factory(rec.Set, 0)
				res.Sets[rec.Set] = ix
			}
			_, err := ix.Set(rec.Key, rec.Val)
			return err
		case OpDelete:
			if ix, ok := res.Sets[rec.Set]; ok {
				ix.Delete(rec.Key)
			}
			return nil
		case OpFlushAll:
			clear(res.Sets)
			return nil
		}
		return fmt.Errorf("%w: unknown op %d at LSN %d", ErrCorrupt, rec.Op, rec.LSN)
	})
	if err != nil {
		return nil, err
	}
	res.LastLSN, res.Replayed, res.TornTail = last, replayed, torn
	return res, nil
}

// Keys sums the recovered sets' key counts.
func (r *Result) Keys() int {
	total := 0
	for _, ix := range r.Sets {
		total += ix.Len()
	}
	return total
}

// SaveIndex snapshots a single unnamed index — the single-index form used
// by indextest and the bench harness; servers with a named keyspace use
// WriteSnapshot directly. lsn must cover every WAL record already applied
// to ix (pass wal.LSN(), or 0 when there is no WAL).
func SaveIndex(dir string, lsn uint64, ix index.Index) (string, error) {
	return WriteSnapshot(dir, lsn, []SetSnapshot{{Set: "", Cursor: ix.NewCursor()}})
}

// RecoverIndex is Recover for a single unnamed index: it returns the
// rebuilt index (a fresh empty one from mk when the directory holds no
// data) alongside the full Result.
func RecoverIndex(dir string, mk func(capacity int) index.Index) (index.Index, *Result, error) {
	res, err := Recover(dir, func(set string, hint int) index.Index {
		if hint < 16 {
			hint = 16
		}
		return mk(hint)
	})
	if err != nil {
		return nil, nil, err
	}
	ix, ok := res.Sets[""]
	if !ok {
		ix = mk(16)
		res.Sets[""] = ix
	}
	return ix, res, nil
}

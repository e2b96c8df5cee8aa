// Package persist stubs the repo's persistence layer for the
// durabilityerr fixtures; the analyzer matches it by import-path suffix.
package persist

// WAL stands in for the write-ahead log.
type WAL struct{}

// Append logs one record, returning its LSN.
func (w *WAL) Append(rec []byte) (uint64, error) { return 0, nil }

// Commit parks until a coalesced fsync covers lsn.
func (w *WAL) Commit(lsn uint64) error { return nil }

// Close waits for the last fsync and closes the log.
func (w *WAL) Close() error { return nil }

// WriteSnapshot writes a point-in-time image.
func WriteSnapshot(path string) error { return nil }

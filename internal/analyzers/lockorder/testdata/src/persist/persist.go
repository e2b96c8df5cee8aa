// Package persist is a minimal stub of the real persist package for the
// lockorder fixtures: the park check matches by receiver type and
// import-path suffix, so a WAL with a Commit method is all it needs.
package persist

// WAL stands in for the real write-ahead log.
type WAL struct{}

// Commit parks until the WAL syncer's fsync covers lsn (stub).
func (w *WAL) Commit(lsn uint64) error { return nil }

// Append appends one record (stub, here so fixtures can mix calls).
func (w *WAL) Append(op byte, set, key, val []byte) (uint64, error) { return 0, nil }

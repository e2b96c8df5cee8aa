// Package index defines the ordered-index interface implemented by the
// Cuckoo Trie and every baseline competitor, so that the YCSB workload
// engine, the mini-Redis store, and the benchmark harness can drive them
// interchangeably — mirroring the paper's evaluation setup (§6.1), where all
// indexes store pointers to key-value pairs.
//
// The interface is batch-first (API v2): alongside the point operations it
// carries MultiGet/MultiSet, so engines whose probes are independent memory
// accesses — the Cuckoo Trie's whole design thesis — can overlap the DRAM
// misses of an entire batch instead of serializing them (§4.4, generalized
// across keys). Engines without a native batch path satisfy the interface
// with the loop-based Fallback helpers in this package.
package index

// Index is an ordered dictionary from byte-string keys to uint64 values.
//
// Engines copy keys; callers may reuse buffers. Set, MultiSet and bulk
// loads retain no caller slice past their return, and lookups retain none
// at all, so a server can pass arguments that alias its read buffer
// straight through (indextest's KeyNotRetained case pins this).
type Index interface {
	// Set inserts or updates a key. added reports whether the key was newly
	// inserted (true) rather than an existing key updated (false) — the
	// distinction Redis's ZADD reply and YCSB's insert accounting need.
	Set(key []byte, value uint64) (added bool, err error)
	// Get returns the value for key.
	Get(key []byte) (uint64, bool)
	// MultiGet looks up a batch of keys. vals and found must each have at
	// least len(keys) elements; vals[i], found[i] receive the result for
	// keys[i]. MLP-aware engines overlap the independent probes of the whole
	// batch; others fall back to one Get per key.
	MultiGet(keys [][]byte, vals []uint64, found []bool)
	// MultiSet inserts or updates a batch of keys with vals[i] as the value
	// for keys[i] (vals must have at least len(keys) elements). When errs is
	// non-nil it must also have at least len(keys) elements and receives the
	// per-key error (nil on success). It returns the number of keys newly
	// added. Later keys are attempted even if earlier ones fail.
	MultiSet(keys [][]byte, vals []uint64, errs []error) (added int)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// Scan visits up to n keys ≥ start in ascending order; fn returning
	// false stops early. Returns the number visited.
	Scan(start []byte, n int, fn func(key []byte, value uint64) bool) int
	// NewCursor returns a new, unpositioned cursor over the index. Position
	// it with Seek. Engines without ordered iteration return a cursor that
	// is never valid.
	NewCursor() Cursor
	// Len returns the number of stored keys.
	Len() int
	// MemoryOverheadBytes reports the index's own memory, including
	// pointers to key-value pairs but excluding the key-value bytes (§6.5).
	MemoryOverheadBytes() int64
	// Name identifies the index in benchmark output.
	Name() string
}

// Cursor pages through keys in ascending order without holding a callback
// frame, so servers can interleave iteration with other work (e.g. paginated
// scan replies). Key and Value are valid only while Valid reports true, and
// the Key slice may be reused by the next Seek/Next.
type Cursor interface {
	// Seek positions the cursor at the smallest key ≥ start (the minimum
	// key when start is nil) and reports whether such a key exists.
	Seek(start []byte) bool
	// Valid reports whether the cursor is positioned on a key.
	Valid() bool
	// Key returns the current key.
	Key() []byte
	// Value returns the current value.
	Value() uint64
	// Next advances to the next key in order, reporting whether one exists.
	Next() bool
	// Close releases cursor resources. The cursor must not be used after.
	Close()
}

// Concurrent is implemented by indexes that are safe for concurrent use by
// multiple goroutines (the paper omits STX and MlpIndex from multithreaded
// runs; we do the same via this marker).
type Concurrent interface {
	Index
	ConcurrentSafe() bool
}

// IsConcurrent reports whether ix is safe for multi-goroutine use.
func IsConcurrent(ix Index) bool {
	c, ok := ix.(Concurrent)
	return ok && c.ConcurrentSafe()
}

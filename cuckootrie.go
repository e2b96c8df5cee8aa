// Package cuckootrie is a Go implementation of the Cuckoo Trie (Zeitak &
// Morrison, SOSP 2021): a fast, memory-efficient ordered index designed for
// memory-level parallelism (MLP).
//
// Instead of chasing pointers down a tree — a serial chain of DRAM accesses
// the CPU cannot overlap — the Cuckoo Trie stores path-compressed trie nodes
// in a bucketized cuckoo hash table keyed by the node's name (a prefix of
// the key). All prefixes of a lookup key are known up front, so the probes
// for an entire root-to-leaf path are independent and can be serviced by
// DRAM in parallel. A novel key-eliminating entry format (last symbol + tag
// + color + parent color, with a peelable hash function) keeps entries at
// constant size regardless of key length.
//
// The index is linearizable under concurrent use: lookups and scans are
// lock-free (per-bucket seqlock validation), writers lock only the buckets
// they touch.
//
// The API is batch-first (v2): MultiGet prefetches each memory access of a
// whole batch's descents one round before reading it, so the independent
// DRAM misses of all descents overlap — the same MLP argument the paper
// makes for one lookup, generalized across a pipeline of requests. Set
// reports whether the key was newly added, and NewCursor provides paginated
// ordered iteration without a callback frame.
//
// Basic usage:
//
//	t := cuckootrie.New(cuckootrie.Config{CapacityHint: 1 << 20})
//	added, _ := t.Set([]byte("key"), 42)
//	v, ok := t.Get([]byte("key"))
//
//	// Batched lookups: independent probes overlap in DRAM.
//	vals := make([]uint64, len(batch))
//	found := make([]bool, len(batch))
//	t.MultiGet(batch, vals, found)
//
//	// Cursor iteration.
//	c := t.NewCursor()
//	for ok := c.Seek([]byte("k")); ok; ok = c.Next() { _ = c.Key() }
//	c.Close()
package cuckootrie

import (
	"repro/internal/core"
	"repro/internal/index"
)

// Config controls trie geometry and features. See core.Config for the
// field-by-field documentation.
type Config = core.Config

// Stats reports structural and memory statistics (paper §6.5 accounting).
type Stats = core.Stats

// Iterator walks keys in ascending order.
type Iterator = core.Iterator

// Cursor is the paginated-iteration interface shared with every engine
// (Seek/Valid/Key/Value/Next/Close). The trie's cursor is its native
// Iterator; see NewCursor.
type Cursor = index.Cursor

// Errors returned by trie operations.
var (
	ErrTableFull     = core.ErrTableFull
	ErrKeyTooLong    = core.ErrKeyTooLong
	ErrScansDisabled = core.ErrScansDisabled
)

// Trie is a Cuckoo Trie: a linearizable, concurrently-accessible ordered
// index from byte-string keys to uint64 values.
type Trie struct {
	t *core.Trie
}

// New creates an empty Cuckoo Trie.
func New(cfg Config) *Trie { return &Trie{t: core.New(cfg)} }

// Set inserts key with value, or updates the value if key is present. added
// reports whether key was newly inserted rather than updated.
func (t *Trie) Set(key []byte, value uint64) (added bool, err error) { return t.t.Set(key, value) }

// Get returns the value stored for key.
func (t *Trie) Get(key []byte) (uint64, bool) { return t.t.Get(key) }

// MultiGet looks up a batch of keys as a staged prefetch pipeline: every
// memory access of every key's descent (bucket lines, then the value slot
// and any long key's bytes) is prefetched one round before it is read, so
// the batch's independent DRAM misses overlap instead of serializing. vals
// and found must each have at least len(keys) elements.
func (t *Trie) MultiGet(keys [][]byte, vals []uint64, found []bool) {
	t.t.MultiGet(keys, vals, found)
}

// MultiSet inserts or updates a batch of keys, returning how many were newly
// added. errs, when non-nil, receives the per-key error (nil on success).
func (t *Trie) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	return t.t.MultiSet(keys, vals, errs)
}

// NewCursor returns an unpositioned cursor backed by the trie's native
// iterator (the sorted leaf list); position it with Seek.
func (t *Trie) NewCursor() Cursor { return t.t.NewCursor() }

// Contains reports whether key is present.
func (t *Trie) Contains(key []byte) bool { return t.t.Contains(key) }

// Delete removes key, reporting whether it was present.
func (t *Trie) Delete(key []byte) bool { return t.t.Delete(key) }

// Len returns the number of stored keys.
func (t *Trie) Len() int { return t.t.Len() }

// Min returns the smallest key and its value.
func (t *Trie) Min() (key []byte, value uint64, ok bool) { return t.t.Min() }

// Max returns the largest key and its value.
func (t *Trie) Max() (key []byte, value uint64, ok bool) { return t.t.Max() }

// Successor returns the smallest stored key ≥ k.
func (t *Trie) Successor(k []byte) (key []byte, value uint64, ok bool) { return t.t.Successor(k) }

// Predecessor returns the largest stored key ≤ k.
func (t *Trie) Predecessor(k []byte) (key []byte, value uint64, ok bool) { return t.t.Predecessor(k) }

// Seek returns an iterator positioned at the smallest key ≥ start
// (the minimum key when start is nil).
func (t *Trie) Seek(start []byte) (*Iterator, error) { return t.t.Seek(start) }

// Scan visits up to n keys ≥ start in ascending order; fn returning false
// stops early. Returns the number of keys visited. With scans disabled it
// visits nothing.
func (t *Trie) Scan(start []byte, n int, fn func(key []byte, value uint64) bool) int {
	visited, _ := t.t.Scan(start, n, fn)
	return visited
}

// Stats scans the table and reports structural statistics. Not linearizable
// with concurrent writers.
func (t *Trie) Stats() Stats { return t.t.Stats() }

// CheckInvariants deep-checks the structure; for tests and debugging on a
// quiescent trie.
func (t *Trie) CheckInvariants() error { return t.t.CheckInvariants() }

// MemoryOverheadBytes reports the index's own memory — the hash table plus
// per-key record bookkeeping, excluding key-value bytes (§6.5).
func (t *Trie) MemoryOverheadBytes() int64 {
	s := t.t.Stats()
	return s.TableBytes + s.RecordPtrBytes
}

// LookupLevels returns the cache-line addresses a lookup of k would touch,
// one slice per trie level (two candidate buckets each, plus the record
// lines when the lookup reads the record). The benchmark's structural
// counts and `ctbench table3`'s lines-per-lookup are computed from it.
func (t *Trie) LookupLevels(k []byte) [][]uint64 { return t.t.LookupLevels(k) }

// Name identifies the index in benchmark output.
func (t *Trie) Name() string { return "CuckooTrie" }

// ConcurrentSafe marks the trie safe for concurrent use.
func (t *Trie) ConcurrentSafe() bool { return true }

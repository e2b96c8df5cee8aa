package core

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Config controls a Trie's geometry and features.
type Config struct {
	// CapacityHint is the expected number of keys. The hash table is sized so
	// that this many keys reach roughly the paper's 85% load factor
	// (≈1.25 trie nodes per random key, §4.6).
	CapacityHint int
	// AutoResize doubles the table when an insertion cannot find room. The
	// paper's implementation omits automatic resizing (§6.1); ours supports
	// it as an extension but defaults off to match the paper.
	AutoResize bool
	// DisableLeafList disables maintenance of the sorted leaf linked list and
	// subtree-max locators. Range scans become unavailable. This is the
	// ablation of §6.2 (footnote 10): without the list, insert throughput
	// approaches ARTOLC's.
	DisableLeafList bool
}

func (c *Config) fill() {
	if c.CapacityHint <= 0 {
		c.CapacityHint = 1024
	}
}

const (
	// loadFactor is the table load factor sizing aims for, the paper's
	// (§6.1).
	loadFactor = 0.85
	// tableSeed seeds the kick table and the hash's symbol permutation,
	// fixed for reproducibility. Each resize derives a fresh seed from the
	// new geometry, so repeated rebuild attempts use independent hash
	// functions (see hasher.symTab).
	tableSeed = 0x5eed5eed
)

// bucketsFor returns the power-of-two bucket count for an expected key
// count, at most maxBuckets.
func bucketsFor(keys int) uint64 {
	// Random data costs ~1.25 nodes/key (§4.6); we size for 1.30 — ~4%
	// headroom — so mildly prefix-heavy datasets don't immediately trip a
	// resize. Pathological datasets still need more; AutoResize covers them.
	nodes := float64(keys) * 1.30
	want := nodes / (entriesPerBucket * loadFactor)
	b := uint64(hashR)
	for float64(b) < want && b < maxBuckets {
		b <<= 1
	}
	return b
}

// Errors returned by Trie operations.
var (
	// ErrTableFull is returned when an insertion cannot find room and
	// AutoResize is disabled (matching the paper's fixed-size tables), or
	// when a resize would take the table past maxBuckets (2^28) buckets.
	ErrTableFull = errors.New("cuckootrie: hash table full (enable AutoResize or raise CapacityHint)")
	// ErrKeyTooLong is returned for keys longer than MaxKeyLen.
	ErrKeyTooLong = errors.New("cuckootrie: key too long")
	// ErrScansDisabled is returned by ordered operations when the leaf list
	// is disabled.
	ErrScansDisabled = errors.New("cuckootrie: ordered operations disabled (DisableLeafList)")
)

// MaxKeyLen is the maximum supported key length in bytes. A key longer
// than 8 bytes is named by a chunk triple whose length field is recLenBits
// (13) bits wide (recstore.go), so the limit must stay below 2^13.
const MaxKeyLen = 1 << 12

// rootLastSym is the root entry's sentinel last-symbol value (> any symbol).
const rootLastSym = 0x3f

// Trie is a Cuckoo Trie: a linearizable, concurrently-accessible ordered
// index from byte-string keys to uint64 values.
type Trie struct {
	cfg  Config
	tbl  atomic.Pointer[table]
	recs *recordStore

	count atomic.Int64

	// rootColor is the root entry's color; the root's hash is 0 by
	// definition (name ε), so (0, rootColor) is its permanent locator.
	// Atomic because resize rewrites it concurrently with lock-free readers;
	// the table-pointer swap orders the two for readers of the new table.
	rootColor atomic.Uint32

	// minLoc is the locator of the minimum leaf, packed as
	// hash<<4 | color<<1 | valid. Ops that change it must hold bucket 0's
	// lock, serializing updates; readers load it atomically.
	minLoc atomic.Uint64

	resizeMu sync.Mutex
	gen      atomic.Uint64 // resize generation, bumped on table swap
}

func packMinLoc(l locator) uint64 { return l.hash<<4 | uint64(l.color)<<1 | 1 }
func unpackMinLoc(v uint64) (locator, bool) {
	return locator{hash: v >> 4, color: uint8(v >> 1 & 7)}, v&1 != 0
}

// New creates an empty Cuckoo Trie.
func New(cfg Config) *Trie {
	cfg.fill()
	tr := &Trie{cfg: cfg, recs: newRecordStore(cfg.CapacityHint)}
	t := newTable(bucketsFor(cfg.CapacityHint), tableSeed)
	// Install the root: name ε, hash 0, an internal node with no children.
	// Its lastSym is a sentinel no real symbol can equal (symbols are ≤ 32),
	// so the root can never falsely match a child search for another entry
	// that hashes to 0 (e.g. the empty key's leaf).
	root := node{w0: newWord0(kindInternal, rootLastSym)}
	b1, _, tag := t.bucketsOf(0)
	root.setIdentity(tag, true, 0)
	t.writeSlot(b1, 0, root)
	tr.rootColor.Store(0)
	tr.tbl.Store(t)
	return tr
}

// Len returns the number of keys currently stored.
func (tr *Trie) Len() int { return int(tr.count.Load()) }

// locate resolves a locator to its entry's raw words. found is false only on
// transient contention; the caller should retry (and revalidate whatever
// produced the locator if the retry limit is hit — see followLocator).
func (t *table) locate(l locator) (w0, w1, w2, b uint64, slot int, ver uint64, found bool) {
	return t.probe(l.hash, matchByLoc(l), matchMaskByLoc)
}

// followLocator resolves a locator to its leaf, retrying across concurrent
// relocations. src is the entry the locator was read from. The source's
// bucket version is re-checked after every resolution attempt — including
// successful ones: a (hash, color) pair can be freed and reused by unrelated
// keys, so a locator is only trustworthy while its source is unchanged (§5:
// following a next pointer re-reads the version of the source leaf).
// Invariant: while src is unchanged, the target exists, is current and is a
// leaf (locators name subtree-max and next leaves, and every writer that
// moves or deletes a node updates all locators referencing it in the same
// critical section), so anything else is a conflict.
func (t *table) followLocator(l locator, src entryRef) (pathNode, bool) {
	for spin := 0; ; spin++ {
		n, ok := asNode(t.locate(l))
		if t.loadVersion(src.bucket) != src.ver {
			return pathNode{}, false
		}
		if ok {
			n.hash = l.hash
			return n, rawKind(n.w0) == kindLeaf
		}
		if spin > 1024 {
			// Table likely swapped under us (resize poisons old buckets as
			// locked, but src might be in a still-even bucket). Fail so the
			// caller reloads the table pointer.
			return pathNode{}, false
		}
	}
}

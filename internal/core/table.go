package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Table layout. The paper's bucket is one 64-byte line: a 32-bit seqlock
// and four 15-byte entries (Figure 4). Ours splits each bucket into a hot
// head and a cold part and lays buckets out in 256-byte groups of three,
// each group 256-byte aligned:
//
//	line 0   head(3g) head(3g+1) head(3g+2) pad   three 20-byte heads + 4 zero bytes
//	line 1   cold(3g)                             [w1×4, w2×4], 64 bytes
//	line 2   cold(3g+1)
//	line 3   cold(3g+2)
//
// A head is the bucket's uint32 seqlock followed by its four slots' 32-bit
// word 0s (entry.go), which hold every field a child search, a writer's
// placement or an eviction decides on. So a probe decides on the head line
// and reads one cold line, the matched slot's, and a bucket costs 256/3 =
// 85.3 bytes. Bucket b lives in group b/3 at position b%3, so its head and
// cold part share a 4 KiB page.
//
// Outside this file word 0 travels zero-extended in a uint64 and versions
// in a uint64; the accessors below narrow and widen. They reach heads with
// 32-bit atomics and cold words with 64-bit ones, through unsafe.Add views
// of the one backing array: a bucket index is always below S, so every
// offset is inside it.
const (
	groupBuckets = 3
	groupBytes   = 256 // one head line, three cold lines
	lineBytes    = 64
	headBytes    = 4 * (1 + entriesPerBucket) // seqlock + four word 0s
	coldBytes    = 8 * 2 * entriesPerBucket   // w1×4, w2×4

	// maxBuckets caps S so that every hash in [0, S·t) fits word 2's
	// 32-bit locator half.
	maxBuckets = 1 << 28
)

// table is one immutable-geometry bucketized cuckoo hash table. Resizing
// builds a new table and atomically swaps the trie's pointer to it, so all
// geometry here is fixed for the table's lifetime.
type table struct {
	hasher
	words []uint64       // ceil(S/3) groups, 256-byte aligned
	base  unsafe.Pointer // &words[0]
}

func newTable(buckets uint64, seed int64) *table {
	if buckets > maxBuckets {
		panic("core: bucket count above maxBuckets")
	}
	// Groups start on 256-byte boundaries, so none straddles a page.
	const gw = groupBytes / 8
	n := (buckets + groupBuckets - 1) / groupBuckets * gw
	raw := make([]uint64, n+gw-1)
	off := (-uintptr(unsafe.Pointer(&raw[0])) & (groupBytes - 1)) / 8
	words := raw[off : off+uintptr(n) : off+uintptr(n)]
	return &table{hasher: newHasher(buckets, seed), words: words, base: unsafe.Pointer(&words[0])}
}

// bucketAt returns the byte offsets of bucket b's head and cold part.
func bucketAt(b uint64) (head, cold uintptr) {
	g, p := uintptr(b/groupBuckets), uintptr(b%groupBuckets)
	return g*groupBytes + p*headBytes, g*groupBytes + lineBytes + p*coldBytes
}

// u32 and u64 view the words at byte offset off. A head's seqlock is at
// its offset +0 and slot i's word 0 at +4+4i; a cold part's slot i has
// word 1 at +8i and word 2 at +32+8i.
func (t *table) u32(off uintptr) *uint32 { return (*uint32)(unsafe.Add(t.base, off)) }
func (t *table) u64(off uintptr) *uint64 { return (*uint64)(unsafe.Add(t.base, off)) }

func w0At(head uintptr, slot int) uintptr { return head + 4 + 4*uintptr(slot) }
func w1At(cold uintptr, slot int) uintptr { return cold + 8*uintptr(slot) }
func w2At(cold uintptr, slot int) uintptr { return cold + 32 + 8*uintptr(slot) }

func (t *table) loadVersion(b uint64) uint64 {
	head, _ := bucketAt(b)
	return uint64(atomic.LoadUint32(t.u32(head)))
}

// prefetchHead and prefetchCold hint the two lines a probe of bucket b
// reads.
func (t *table) prefetchHead(b uint64) {
	head, _ := bucketAt(b)
	prefetchWord(t.u64(head &^ (lineBytes - 1)))
}

func (t *table) prefetchCold(b uint64) {
	_, cold := bucketAt(b)
	prefetchWord(t.u64(cold))
}

// slotRef names one entry slot in the table.
type slotRef struct {
	bucket uint64
	slot   int
}

// entryRef is a slotRef plus the bucket version observed when the entry was
// read. Writers CAS the version from this value to lock-and-validate in one
// step (§5: "simultaneously locks the buckets and verifies they have not
// changed ... using an atomic compare-and-swap").
type entryRef struct {
	slotRef
	ver uint64
}

// Seqlock readers wait out a held lock: readSpins attempts, yielding the
// processor on every attempt after the first yieldAfter. A reader that gives
// up reports a conflict and its caller retries or re-validates.
const (
	readSpins  = 64
	yieldAfter = 16
)

// matchHead returns the first live slot of the head at offset head whose
// word 0 matches want under mask, and that word 0; slot is -1 when none
// does.
func (t *table) matchHead(head uintptr, want, mask uint64) (w0 uint64, slot int) {
	for i := 0; i < entriesPerBucket; i++ {
		w := uint64(atomic.LoadUint32(t.u32(w0At(head, i))))
		if w&uint64(fKind) != kindEmpty && w&mask == want {
			return w, i
		}
	}
	return 0, -1
}

// scanBucket is the one read of a bucket on the lookup paths: it decides on
// the head line which live slot's word 0 matches want under mask, then reads
// only that slot's cold words, and re-checks the version they were all read
// under. slot is -1, and the words meaningless, when a consistent read finds
// no match or the lock stayed held.
func (t *table) scanBucket(b, want, mask uint64) (w0, w1, w2 uint64, slot int, ver uint64) {
	head, cold := bucketAt(b)
	vp := t.u32(head)
	for spin := 0; spin < readSpins; spin++ {
		v := atomic.LoadUint32(vp)
		if v&1 != 0 {
			if spin > yieldAfter {
				runtime.Gosched()
			}
			continue
		}
		w0, slot = t.matchHead(head, want, mask)
		if slot >= 0 {
			w1 = atomic.LoadUint64(t.u64(w1At(cold, slot)))
			w2 = atomic.LoadUint64(t.u64(w2At(cold, slot)))
		}
		if atomic.LoadUint32(vp) == v {
			return w0, w1, w2, slot, uint64(v)
		}
	}
	return 0, 0, 0, -1, 0
}

// scanHead is scanBucket's head half, for MultiGet's keys that wait a
// round for the matched slot's cold line: the slot and version it returns
// are consistent, and the cold words (loadCold) are too if the version is
// unchanged after they are read.
func (t *table) scanHead(b, want, mask uint64) (w0 uint64, slot int, ver uint64) {
	head, _ := bucketAt(b)
	vp := t.u32(head)
	for spin := 0; spin < readSpins; spin++ {
		v := atomic.LoadUint32(vp)
		if v&1 != 0 {
			if spin > yieldAfter {
				runtime.Gosched()
			}
			continue
		}
		w0, slot = t.matchHead(head, want, mask)
		if atomic.LoadUint32(vp) == v {
			return w0, slot, uint64(v)
		}
	}
	return 0, -1, 0
}

// loadCold reads words 1 and 2 of slot of bucket b, with no version check.
func (t *table) loadCold(b uint64, slot int) (w1, w2 uint64) {
	_, cold := bucketAt(b)
	return atomic.LoadUint64(t.u64(w1At(cold, slot))), atomic.LoadUint64(t.u64(w2At(cold, slot)))
}

// loadHeads snapshots the word 0s of bucket b's slots for writers' plans,
// evictions and stats under the seqlock, waiting out a held lock like
// scanBucket. Word 0 holds every field a placement or a relocation decides
// on.
func (t *table) loadHeads(b uint64, w0s *[entriesPerBucket]uint64) (ver uint64, ok bool) {
	head, _ := bucketAt(b)
	vp := t.u32(head)
	for spin := 0; spin < readSpins; spin++ {
		v := atomic.LoadUint32(vp)
		if v&1 != 0 {
			if spin > yieldAfter {
				runtime.Gosched()
			}
			continue
		}
		for i := range w0s {
			w0s[i] = uint64(atomic.LoadUint32(t.u32(w0At(head, i))))
		}
		if atomic.LoadUint32(vp) == v {
			return uint64(v), true
		}
	}
	return 0, false
}

// loadSlot reads slot of bucket b without seqlock choreography: for a
// bucket the caller holds locked, or a table no writer can reach (a
// quiesced or unpublished one).
func (t *table) loadSlot(b uint64, slot int) node {
	head, _ := bucketAt(b)
	w1, w2 := t.loadCold(b, slot)
	return node{uint64(atomic.LoadUint32(t.u32(w0At(head, slot)))), w1, w2}
}

// freeSlot returns the first empty slot of bucket b, which the caller holds
// locked, or -1.
func (t *table) freeSlot(b uint64) int {
	head, _ := bucketAt(b)
	for i := 0; i < entriesPerBucket; i++ {
		if rawKind(uint64(atomic.LoadUint32(t.u32(w0At(head, i))))) == kindEmpty {
			return i
		}
	}
	return -1
}

// headPad reads the zero padding after group g's three heads.
func (t *table) headPad(g uint64) uint32 {
	return atomic.LoadUint32(t.u32(uintptr(g)*groupBytes + groupBuckets*headBytes))
}

// writeSlot stores node n into a slot. The caller must hold the bucket's
// seqlock (odd version), or own a table no reader can reach. Stores are
// atomic so concurrent seqlock readers see no torn words (they will discard
// the read anyway when the version check fails).
func (t *table) writeSlot(b uint64, slot int, n node) {
	head, cold := bucketAt(b)
	atomic.StoreUint64(t.u64(w1At(cold, slot)), n.w1)
	atomic.StoreUint64(t.u64(w2At(cold, slot)), n.w2)
	atomic.StoreUint32(t.u32(w0At(head, slot)), uint32(n.w0))
}

// tryLock CAS-locks bucket b, validating that its version still equals ver.
func (t *table) tryLock(b uint64, ver uint64) bool {
	if ver&1 != 0 || ver > 1<<32-1 {
		return false
	}
	head, _ := bucketAt(b)
	return atomic.CompareAndSwapUint32(t.u32(head), uint32(ver), uint32(ver)+1)
}

// unlock releases bucket b. bump selects whether the content changed
// (readers must retry: version advances to ver+2) or not (version restored).
func (t *table) unlock(b uint64, ver uint64, bump bool) {
	if bump {
		ver += 2
	}
	head, _ := bucketAt(b)
	atomic.StoreUint32(t.u32(head), uint32(ver))
}

// lockSet acquires a set of bucket seqlocks in sorted order, validating each
// bucket's recorded version. All-or-nothing: any failure releases everything.
// Sorted acquisition is not required for safety (acquisition never blocks)
// but reduces livelock between writers with overlapping sets.
type lockSet struct {
	buckets []uint64
	vers    []uint64
	n       int
}

func (ls *lockSet) reset() { ls.n = 0 }

// add registers bucket b with expected version ver. Duplicate buckets are
// merged; conflicting expected versions fail the eventual acquire.
func (ls *lockSet) add(b uint64, ver uint64) {
	for i := 0; i < ls.n; i++ {
		if ls.buckets[i] == b {
			if ls.vers[i] != ver {
				// Two observations of the same bucket disagree: mark
				// poisoned so acquire fails and the operation restarts.
				ls.vers[i] = ^uint64(0)
			}
			return
		}
	}
	if ls.n < len(ls.buckets) {
		ls.buckets[ls.n] = b
		ls.vers[ls.n] = ver
	} else {
		ls.buckets = append(ls.buckets, b)
		ls.vers = append(ls.vers, ver)
	}
	ls.n++
}

func (ls *lockSet) sort() {
	// Insertion sort: sets are small (O(path length)).
	for i := 1; i < ls.n; i++ {
		b, v := ls.buckets[i], ls.vers[i]
		j := i - 1
		for j >= 0 && ls.buckets[j] > b {
			ls.buckets[j+1], ls.vers[j+1] = ls.buckets[j], ls.vers[j]
			j--
		}
		ls.buckets[j+1], ls.vers[j+1] = b, v
	}
}

// acquire locks every bucket in the set. On failure everything is released
// and acquire reports false; the caller restarts its operation.
func (ls *lockSet) acquire(t *table) bool {
	ls.sort()
	for i := 0; i < ls.n; i++ {
		if !t.tryLock(ls.buckets[i], ls.vers[i]) {
			for j := i - 1; j >= 0; j-- {
				t.unlock(ls.buckets[j], ls.vers[j], false)
			}
			return false
		}
	}
	return true
}

// release unlocks all buckets, bumping versions (content changed).
func (ls *lockSet) release(t *table, bump bool) {
	for i := 0; i < ls.n; i++ {
		t.unlock(ls.buckets[i], ls.vers[i], bump)
	}
}

func (ls *lockSet) holds(b uint64) bool {
	for i := 0; i < ls.n; i++ {
		if ls.buckets[i] == b {
			return true
		}
	}
	return false
}

package core

import (
	"runtime"
	"sync/atomic"
)

// bucketWords is the stride of one bucket in the flat word array: one
// version/lock word followed by four 3-word entries. The paper co-locates a
// 32-bit seqlock with four 15-byte entries in one 64-byte cache line
// (Figure 4); our Go layout is 104 bytes (see entry.go for why).
const bucketWords = 1 + entriesPerBucket*3

// table is one immutable-geometry bucketized cuckoo hash table. Resizing
// builds a new table and atomically swaps the trie's pointer to it, so all
// geometry here is fixed for the table's lifetime.
type table struct {
	hasher
	words []uint64 // len = buckets * bucketWords
}

func newTable(buckets uint64, seed int64) *table {
	return &table{
		hasher: newHasher(buckets, seed),
		words:  make([]uint64, buckets*bucketWords),
	}
}

func (t *table) versionAddr(b uint64) *uint64 { return &t.words[b*bucketWords] }

func (t *table) loadVersion(b uint64) uint64 {
	return atomic.LoadUint64(t.versionAddr(b))
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

// scanBucket is the one read of a bucket on the lookup paths: it finds the
// live slot whose word 0 matches want under mask and snapshots that slot's
// words under the seqlock, with the version they were read under. slot is
// -1, and the words meaningless, when a consistent read finds no match or
// the lock stayed held.
func (t *table) scanBucket(b, want, mask uint64) (w0, w1, w2 uint64, slot int, ver uint64) {
	ws := t.words[b*bucketWords : (b+1)*bucketWords]
	for spin := 0; spin < readSpins; spin++ {
		v := atomic.LoadUint64(&ws[0])
		if v&1 != 0 {
			if spin > yieldAfter {
				runtime.Gosched()
			}
			continue
		}
		slot = -1
		for i := 0; i < entriesPerBucket; i++ {
			e := ws[1+3*i : 4+3*i]
			w0 = atomic.LoadUint64(&e[0])
			if w0&3 == kindEmpty || w0&mask != want {
				continue
			}
			w1 = atomic.LoadUint64(&e[1])
			w2 = atomic.LoadUint64(&e[2])
			slot = i
			break
		}
		if atomic.LoadUint64(&ws[0]) == v {
			return w0, w1, w2, slot, v
		}
	}
	return 0, 0, 0, -1, 0
}

// bucketSnap is a consistent snapshot of one bucket.
type bucketSnap struct {
	ver     uint64
	entries [entriesPerBucket]entry
}

// readBucket snapshots a whole bucket for writers' plans, evictions and
// stats, waiting out a held seqlock like scanBucket.
func (t *table) readBucket(b uint64) (bucketSnap, bool) {
	for spin := 0; spin < readSpins; spin++ {
		v := t.loadVersion(b)
		if v&1 != 0 {
			if spin > yieldAfter {
				runtime.Gosched()
			}
			continue
		}
		var s bucketSnap
		s.ver = v
		base := b*bucketWords + 1
		for i := 0; i < entriesPerBucket; i++ {
			w0 := atomic.LoadUint64(&t.words[base+uint64(i)*3])
			w1 := atomic.LoadUint64(&t.words[base+uint64(i)*3+1])
			w2 := atomic.LoadUint64(&t.words[base+uint64(i)*3+2])
			s.entries[i] = decodeEntry(w0, w1, w2)
		}
		if t.loadVersion(b) == v {
			return s, true
		}
	}
	return bucketSnap{}, false
}

// writeSlot stores an entry into a slot. The caller must hold the bucket's
// seqlock (odd version). Stores are atomic so concurrent seqlock readers see
// no torn words (they will discard the read anyway when the version check
// fails).
func (t *table) writeSlot(b uint64, slot int, e entry) {
	base := b*bucketWords + 1 + uint64(slot)*3
	w0, w1, w2 := e.encode()
	atomic.StoreUint64(&t.words[base], w0)
	atomic.StoreUint64(&t.words[base+1], w1)
	atomic.StoreUint64(&t.words[base+2], w2)
}

func (t *table) clearSlot(b uint64, slot int) {
	t.writeSlot(b, slot, entry{})
}

// tryLock CAS-locks bucket b, validating that its version still equals ver.
func (t *table) tryLock(b uint64, ver uint64) bool {
	if ver&1 != 0 {
		return false
	}
	return atomic.CompareAndSwapUint64(t.versionAddr(b), ver, ver+1)
}

// unlock releases bucket b. bump selects whether the content changed
// (readers must retry: version advances to ver+2) or not (version restored).
func (t *table) unlock(b uint64, ver uint64, bump bool) {
	if bump {
		atomic.StoreUint64(t.versionAddr(b), ver+2)
	} else {
		atomic.StoreUint64(t.versionAddr(b), ver)
	}
}

func (s *bucketSnap) freeSlot() int {
	for i := range s.entries {
		if s.entries[i].kind == kindEmpty {
			return i
		}
	}
	return -1
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

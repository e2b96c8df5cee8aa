package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// recordStore holds what a leaf's own words do not: every key's value, in
// one 8-byte slot per key, and the bytes of keys longer than 8 bytes. A leaf
// carries its key in word 1 (entry.go): a key of ≤ 8 bytes inline, a longer
// one as a (chunk, offset, length) triple into large append-only chunks. So
// the store contains almost no Go pointers — mirroring the paper's use of a
// contiguous allocator (jemalloc + huge pages) and keeping the Go GC out of
// the hot path — and short keys take no chunk bytes at all.
//
// Optimistic readers may hold a leaf that has concurrently been deleted and
// its value slot reused. Safety relies on two properties:
//
//  1. A leaf's key word is read with its word 0 under the leaf's bucket
//     seqlock, so a reader sees some complete key word — stale perhaps,
//     torn never — and every published triple references key bytes fully
//     written before the leaf was stored.
//  2. Chunk bytes are append-only and never overwritten, so a stale triple
//     yields stale-but-intact data.
//
// A key decided from the leaf's words needs no re-validation. A value does:
// callers re-validate the leaf's bucket version after reading it; a reused
// slot implies the leaf was deleted, which bumps the version and restarts
// the reader.
//
// A long key's triple: chunk<<33 | offset<<13 | keyLen (keyLen ≤ 8191 ≥
// MaxKeyLen).
const (
	recChunkSize = 1 << 20
	recLenBits   = 13
	recPosBits   = 20
	inlineKeyMax = 8
)

// Chunks and the slot array are allocated at full fixed length and filled
// by copy, never by append: reassigning a slice header that readers load
// concurrently would itself be a race. The slot array is replaced only when
// it is full (grow).
//
// mu is the innermost lock of the trie: alloc takes it under a committing
// plan's bucket locks, and nothing takes a bucket lock while holding it.
type recordStore struct {
	mu     sync.Mutex
	slots  atomic.Pointer[[]uint64]
	grows  atomic.Uint64 // odd while grow copies the slot array
	chunks atomic.Pointer[[][]byte]
	free   []uint32 // freed slot indices (under mu)
	used   int      // slots ever handed out, live or freed (under mu)
	curPos int      // fill position in the active chunk (under mu)
	keyLen int64    // chunk bytes holding key copies, live or dead (under mu)
}

func newRecordStore(capHint int) *recordStore {
	rs := &recordStore{}
	slots := make([]uint64, max(capHint, 64))
	rs.slots.Store(&slots)
	chunks := make([][]byte, 0, 8)
	rs.chunks.Store(&chunks)
	return rs
}

// alloc stores value in a new slot and returns the slot's index and, for a
// key longer than 8 bytes, the triple of its copy in a chunk (0 for a
// shorter key, which its leaf holds inline). len(key) must be ≤ MaxKeyLen
// (< recChunkSize). Only a plan that commits calls it (plan.apply), with
// its bucket locks held. The index and triple must be published to readers
// only through a seqlock-protected entry write.
func (rs *recordStore) alloc(key []byte, value uint64) (idx uint32, triple uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(key) > inlineKeyMax {
		triple = rs.appendKey(key)
	}
	if n := len(rs.free); n > 0 {
		idx = rs.free[n-1]
		rs.free = rs.free[:n-1]
	} else {
		if rs.used == len(*rs.slots.Load()) {
			rs.grow()
		}
		idx = uint32(rs.used)
		rs.used++
	}
	atomic.StoreUint64(&(*rs.slots.Load())[idx], value)
	return idx, triple
}

// appendKey copies a long key into the active chunk, or into a new one when
// it does not fit, and returns the key's triple (under mu).
func (rs *recordStore) appendKey(key []byte) uint64 {
	chunks := *rs.chunks.Load()
	if len(chunks) == 0 || recChunkSize-rs.curPos < len(key) {
		chunks = append(chunks, make([]byte, recChunkSize))
		rs.chunks.Store(&chunks)
		rs.curPos = 0
	}
	ci, pos := len(chunks)-1, rs.curPos
	copy(chunks[ci][pos:], key)
	rs.curPos += len(key)
	rs.keyLen += int64(len(key))
	return uint64(ci)<<(recPosBits+recLenBits) | uint64(pos)<<recLenBits | uint64(len(key))
}

// inlineKey packs a key of ≤ 8 bytes into a leaf's key word: little-endian,
// zero-padded.
func inlineKey(k []byte) uint64 {
	if len(k) == inlineKeyMax {
		return binary.LittleEndian.Uint64(k)
	}
	var b [inlineKeyMax]byte
	copy(b[:], k)
	return binary.LittleEndian.Uint64(b[:])
}

// keyTriple unpacks a long key's triple.
func keyTriple(w1 uint64) (chunk, pos, klen uint64) {
	return w1 >> (recPosBits + recLenBits), w1 >> recLenBits & (1<<recPosBits - 1), w1 & (1<<recLenBits - 1)
}

// chunkKey returns the key bytes a long key's triple names. The slice
// aliases immutable chunk storage.
func (rs *recordStore) chunkKey(w1 uint64) []byte {
	ci, pos, klen := keyTriple(w1)
	c := (*rs.chunks.Load())[ci]
	return c[pos : pos+klen : pos+klen]
}

// leafKey returns the key of the leaf with words w0, w1: an inline key
// unpacked into buf, or a long key's chunk bytes.
func (rs *recordStore) leafKey(w0, w1 uint64, buf *[inlineKeyMax]byte) []byte {
	if c := rawKeyCode(w0); c != 0 {
		binary.LittleEndian.PutUint64(buf[:], w1)
		return buf[:c-1]
	}
	return rs.chunkKey(w1)
}

// leafKeyIs reports whether the leaf with words w0, w1 holds key k. An
// inline key is decided from the words alone.
func (rs *recordStore) leafKeyIs(w0, w1 uint64, k []byte) bool {
	if c := rawKeyCode(w0); c != 0 {
		return len(k) == c-1 && w1 == inlineKey(k)
	}
	return bytes.Equal(rs.chunkKey(w1), k)
}

// grow replaces the full slot array with one twice its size (under mu).
// setValue does not take mu, so an update may store into the old array
// after the copy has read that word. grows is odd for the whole copy, which
// tells setValue to store again into the array published here.
func (rs *recordStore) grow() {
	old := *rs.slots.Load()
	grown := make([]uint64, 2*len(old)+64)
	rs.grows.Add(1)
	for i := range old {
		grown[i] = atomic.LoadUint64(&old[i])
	}
	rs.slots.Store(&grown)
	rs.grows.Add(1)
}

// release returns a deleted leaf's slot to the free list. Its key bytes
// are never reclaimed: readers alias chunk bytes without a lock (see
// chunkKey), so they stay immutable. The paper's implementation has no
// deletions at all.
func (rs *recordStore) release(idx uint32) {
	rs.mu.Lock()
	rs.free = append(rs.free, idx)
	rs.mu.Unlock()
}

// value returns record idx's value. A value read from an array that grow
// has since replaced is read again from the new one: an update that
// overlapped the grow may have stored only into the new array.
func (rs *recordStore) value(idx uint32) uint64 {
	p := rs.slots.Load()
	for {
		sl := *p
		if int(idx) >= len(sl) {
			return 0
		}
		v := atomic.LoadUint64(&sl[idx])
		q := rs.slots.Load()
		if q == p {
			return v
		}
		p = q
	}
}

// prefetchRecord hints what a lookup that reached the leaf with words w0,
// w1, w2 reads next: its value slot and, for a long key, the key bytes. It
// is a read-only hint for MultiGet's staged leaf: nothing is returned, so
// nothing it touches needs re-validation.
func (rs *recordStore) prefetchRecord(w0, w1, w2 uint64) {
	if sl, idx := *rs.slots.Load(), rawRecIdx(w2); int(idx) < len(sl) {
		prefetchWord(&sl[idx])
	}
	if rawKeyCode(w0) == 0 {
		prefetchBytes(rs.chunkKey(w1))
	}
}

// setValue updates record idx's value in place. The caller holds the
// leaf's bucket lock, so updates of one record never overlap each other,
// but they do overlap alloc's grow: a store that lands in the old array
// after the copy read the word would be lost. So the store counts only if
// no grow was in flight when the array was loaded and none started before
// the store finished; otherwise it waits the grow out and stores again into
// the array the grow published.
func (rs *recordStore) setValue(idx uint32, v uint64) {
	for {
		g := rs.grows.Load()
		if g&1 != 0 {
			runtime.Gosched()
			continue
		}
		sl := *rs.slots.Load()
		if int(idx) >= len(sl) {
			return
		}
		atomic.StoreUint64(&sl[idx], v)
		if rs.grows.Load() == g {
			return
		}
	}
}

// memoryBytes reports the store's value-slot footprint (the "pointers to
// key-value pairs" the paper counts as index overhead), the long keys'
// chunk footprint (key bytes, which the paper excludes) and how many chunk
// bytes hold key copies, live or dead.
func (rs *recordStore) memoryBytes() (slotBytes, keyBytes, keyLen int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	slots := *rs.slots.Load()
	chunks := *rs.chunks.Load()
	return int64(len(slots)) * 8, int64(len(chunks)) * recChunkSize, rs.keyLen
}

package core

import (
	"sync"
	"sync/atomic"
)

// recordStore holds the key-value records that leaves point to. Keys are
// copied into large append-only chunks and addressed by (chunk, offset), so
// the store contains almost no Go pointers — mirroring the paper's use of a
// contiguous allocator (jemalloc + huge pages) and keeping the Go GC out of
// the hot path.
//
// Optimistic readers may hold a record index whose leaf has concurrently
// been deleted and the slot reused. Safety relies on two properties:
//
//  1. A slot's (chunk, offset, length) triple is packed into ONE uint64 read
//     and written atomically, so a reader sees some complete triple — stale
//     perhaps, torn never — and every published triple references key bytes
//     fully written before the triple was stored.
//  2. Chunk bytes are append-only and never overwritten, so a stale triple
//     yields stale-but-intact data.
//
// Callers must still re-validate the leaf's bucket version after acting on
// a record read; a reused slot implies the leaf was deleted, which bumps the
// version and restarts the reader.
//
// Slot layout (stride 2):
//
//	word 0: chunk<<33 | offset<<13 | keyLen   (keyLen ≤ 8191 ≥ MaxKeyLen)
//	word 1: value (mutable; YCSB update workloads write it in place)
const (
	recChunkSize  = 1 << 20
	recSlotStride = 2
	recLenBits    = 13
	recPosBits    = 20
)

// Chunks are allocated at full fixed length and filled by copy, never by
// append: reassigning a slice header that readers load concurrently would
// itself be a race.
type recordStore struct {
	mu     sync.Mutex
	slots  atomic.Pointer[[]uint64]
	chunks atomic.Pointer[[][]byte]
	free   []uint32 // freed slot indices (under mu)
	used   int      // live slot count (under mu)
	curPos int      // fill position in the active chunk (under mu)
}

func newRecordStore(capHint int) *recordStore {
	rs := &recordStore{}
	slots := make([]uint64, 0, recSlotStride*max(capHint, 64))
	rs.slots.Store(&slots)
	chunks := make([][]byte, 0, 8)
	rs.chunks.Store(&chunks)
	return rs
}

// alloc stores (key, value) and returns the new record index. len(key) must
// be ≤ MaxKeyLen (< recChunkSize). The returned index must be published to
// readers only through a seqlock-protected entry write.
func (rs *recordStore) alloc(key []byte, value uint64) uint32 {
	rs.mu.Lock()
	defer rs.mu.Unlock()

	chunks := *rs.chunks.Load()
	var chunkIdx, pos uint64
	if len(chunks) == 0 || recChunkSize-rs.curPos < len(key) {
		c := make([]byte, recChunkSize)
		copy(c, key)
		nc := append(chunks, c)
		rs.chunks.Store(&nc)
		chunkIdx, pos = uint64(len(nc)-1), 0
		rs.curPos = len(key)
	} else {
		last := len(chunks) - 1
		pos = uint64(rs.curPos)
		copy(chunks[last][rs.curPos:], key)
		chunkIdx = uint64(last)
		rs.curPos += len(key)
	}

	var idx uint32
	if n := len(rs.free); n > 0 {
		idx = rs.free[n-1]
		rs.free = rs.free[:n-1]
	} else {
		slots := *rs.slots.Load()
		if len(slots)+recSlotStride > cap(slots) {
			grown := make([]uint64, len(slots), 2*cap(slots)+recSlotStride*64)
			copy(grown, slots)
			rs.slots.Store(&grown)
			slots = grown
		}
		slots = slots[:len(slots)+recSlotStride]
		rs.slots.Store(&slots)
		idx = uint32(len(slots)/recSlotStride - 1)
	}
	sl := *rs.slots.Load()
	base := int(idx) * recSlotStride
	meta := chunkIdx<<(recPosBits+recLenBits) | pos<<recLenBits | uint64(len(key))
	atomic.StoreUint64(&sl[base+1], value)
	atomic.StoreUint64(&sl[base], meta)
	rs.used++
	return idx
}

// release returns a slot to the free list. Key bytes are not reclaimed until
// the trie is resized: readers alias chunk bytes without a lock (see key),
// so chunks stay immutable. The paper's implementation has no deletions at
// all.
func (rs *recordStore) release(idx uint32) {
	rs.mu.Lock()
	rs.free = append(rs.free, idx)
	rs.used--
	rs.mu.Unlock()
}

// key returns the key bytes of record idx. The slice aliases immutable chunk
// storage. The caller must re-validate the leaf it got idx from afterwards:
// a concurrent delete-and-reuse makes this read stale (but never torn).
func (rs *recordStore) key(idx uint32) []byte {
	sl := *rs.slots.Load()
	base := int(idx) * recSlotStride
	if base+1 >= len(sl) {
		return nil
	}
	meta := atomic.LoadUint64(&sl[base])
	klen := meta & (1<<recLenBits - 1)
	pos := meta >> recLenBits & (1<<recPosBits - 1)
	ci := meta >> (recPosBits + recLenBits)
	chunks := *rs.chunks.Load()
	if ci >= uint64(len(chunks)) {
		return nil
	}
	c := chunks[ci]
	if pos+klen > uint64(len(c)) {
		return nil
	}
	return c[pos : pos+klen : pos+klen]
}

func (rs *recordStore) value(idx uint32) uint64 {
	sl := *rs.slots.Load()
	base := int(idx) * recSlotStride
	if base+1 >= len(sl) {
		return 0
	}
	return atomic.LoadUint64(&sl[base+1])
}

// prefetchSlot hints record idx's slot (meta word and value share one line)
// into cache. Like prefetchKey it is a read-only hint for MultiGet's staged
// leaf: nothing is returned, so nothing it touches needs re-validation.
func (rs *recordStore) prefetchSlot(idx uint32) {
	sl := *rs.slots.Load()
	if base := int(idx) * recSlotStride; base+1 < len(sl) {
		prefetchWord(&sl[base])
	}
}

// prefetchKey reads record idx's meta word and hints the first and last
// line of the key bytes it names. A stale triple hints stale-but-mapped
// chunk bytes, which is harmless.
func (rs *recordStore) prefetchKey(idx uint32) {
	prefetchBytes(rs.key(idx))
}

func (rs *recordStore) setValue(idx uint32, v uint64) {
	sl := *rs.slots.Load()
	base := int(idx) * recSlotStride
	if base+1 >= len(sl) {
		return
	}
	atomic.StoreUint64(&sl[base+1], v)
}

// memoryBytes reports the store's slot-metadata footprint (the "pointers to
// key-value pairs" the paper counts as index overhead) and the key-bytes
// footprint (which the paper excludes).
func (rs *recordStore) memoryBytes() (slotBytes, keyBytes int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	slots := *rs.slots.Load()
	chunks := *rs.chunks.Load()
	keyBytes = int64(len(chunks)) * recChunkSize
	return int64(cap(slots)) * 8, keyBytes
}

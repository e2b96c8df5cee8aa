package core

import (
	"slices"
	"sync"
)

// Cuckoo relocations. When both candidate buckets of a new entry are full, a
// chain of entries is relocated, each to its alternate bucket, to free a
// slot (§2, §4.2). Key elimination makes this possible without stored keys:
// an entry's tag plus its current bucket and primacy determine its full hash
// and hence its alternate bucket.
//
// Relocations never change the logical trie (locators are (hash, color),
// not addresses), so each move is an independent two-bucket critical
// section; concurrent readers ride over them via the FindChild retry loop
// (§5: "if there is a concurrent relocation, the node will eventually be
// found in a later iteration").

// kickEdge moves the entry whose word 0 was read as w0 from slot from to
// its alternate bucket to. Word 0 is checked against the slot at apply
// time; the moved entry is the slot's words with the primary bit flipped.
type kickEdge struct {
	from slotRef
	w0   uint64
	to   uint64
}

type bfsNode struct {
	bucket uint64
	parent int // index into nodes; -1 for roots
	edge   kickEdge
}

// evictScratch is one eviction search's working memory. Searches run on
// every insert that finds both buckets full and on every rebuild placement
// that does, so the node queue, the seen set and the chain are pooled like
// plans instead of allocated per search.
type evictScratch struct {
	nodes []bfsNode
	seen  map[uint64]struct{}
	chain []kickEdge
}

var evictPool = sync.Pool{New: func() any {
	return &evictScratch{seen: map[uint64]struct{}{}}
}}

// Eviction search bounds, in buckets visited: an insert's, and a rebuild
// placement's, which has no other way to make room than a larger table.
const (
	maxKicks     = 128
	rebuildKicks = 512
)

// makeRoom tries to free a slot in one of the candidate buckets of room.h
// that none of the failed plan's reserved slots accounts for.
func (tr *Trie) makeRoom(t *table, room roomRequest) bool {
	for attempt := 0; attempt < 8; attempt++ {
		found, applied := t.evict(room.h, maxKicks, room.reserved)
		if !found {
			return false
		}
		if applied {
			return true
		}
	}
	return false
}

// evict searches for an eviction chain that frees a slot in one of the
// candidate buckets of hash h, within maxNodes buckets, and applies it.
// found is false when the search found no chain; applied is false when a
// concurrent writer invalidated the chain it found.
func (t *table) evict(h uint64, maxNodes int, reserved []uint64) (found, applied bool) {
	s := evictPool.Get().(*evictScratch)
	defer evictPool.Put(s)
	chain, found := s.search(t, h, maxNodes, reserved)
	return found, found && t.applyChain(chain)
}

// search BFS-searches buckets reachable by relocation from the two
// candidate buckets of h until a bucket with a free slot is found. Returns
// the move sequence ordered root-to-free, in s's memory; the caller applies
// it in reverse. The chain is never empty: a root bucket with a free slot
// still gives up an entry, because the caller asks for room after its plan
// reserved that slot for an earlier placement — a free slot the table
// still shows is one the plan already counted. For the same reason the
// chain never ends in a bucket whose free slots are all reserved (one per
// entry of reserved naming it): moving an entry there would take the slot
// an earlier placement of the plan needs, and the plan's next attempt would
// ask for room for that placement and move the entry straight back. The
// search reads bucket heads only.
func (s *evictScratch) search(t *table, h uint64, maxNodes int, reserved []uint64) ([]kickEdge, bool) {
	b1, b2, _ := t.bucketsOf(h) // b1 != b2: kick offsets are nonzero
	s.nodes = append(s.nodes[:0], bfsNode{bucket: b1, parent: -1}, bfsNode{bucket: b2, parent: -1})
	clear(s.seen)
	s.seen[b1], s.seen[b2] = struct{}{}, struct{}{}

	var ws [entriesPerBucket]uint64
	for qi := 0; qi < len(s.nodes) && len(s.nodes) < maxNodes; qi++ {
		b := s.nodes[qi].bucket
		if _, ok := t.loadHeads(b, &ws); !ok {
			continue
		}
		free := 0
		for _, w := range ws {
			if rawKind(w) == kindEmpty {
				free++
			}
		}
		for _, r := range reserved {
			if r == b {
				free--
			}
		}
		if s.nodes[qi].parent != -1 && free > 0 {
			// Collect the chain here→...→root, then reverse it.
			s.chain = s.chain[:0]
			for i := qi; s.nodes[i].parent != -1; i = s.nodes[i].parent {
				s.chain = append(s.chain, s.nodes[i].edge)
			}
			slices.Reverse(s.chain)
			return s.chain, true
		}
		for slot, w0 := range ws {
			if rawKind(w0) == kindEmpty {
				continue
			}
			alt := t.altBucket(b, rawTag(w0), w0&primaryBit != 0)
			if _, dup := s.seen[alt]; dup {
				continue
			}
			s.seen[alt] = struct{}{}
			s.nodes = append(s.nodes, bfsNode{
				bucket: alt,
				parent: qi,
				edge:   kickEdge{slotRef{b, slot}, w0, alt},
			})
			if len(s.nodes) >= maxNodes {
				break
			}
		}
	}
	return nil, false
}

// applyChain performs the relocations last-to-first, each as a two-bucket
// locked move with content revalidation.
func (t *table) applyChain(chain []kickEdge) bool {
	for i := len(chain) - 1; i >= 0; i-- {
		if !t.applyMove(&chain[i]) {
			return false
		}
	}
	return true
}

func (t *table) applyMove(e *kickEdge) bool {
	fb, tb := e.from.bucket, e.to
	vf := t.loadVersion(fb)
	vt := t.loadVersion(tb)
	if fb == tb {
		return false
	}
	// Lock in ascending order to reduce writer livelock.
	first, second := fb, tb
	v1, v2 := vf, vt
	if first > second {
		first, second = second, first
		v1, v2 = v2, v1
	}
	if !t.tryLock(first, v1) {
		return false
	}
	if !t.tryLock(second, v2) {
		t.unlock(first, v1, false)
		return false
	}
	ok := false
	// Revalidate: the source slot still holds an entry with the expected
	// word 0, which names its alternate bucket, and the destination still
	// has room.
	if n := t.loadSlot(fb, e.from.slot); n.w0 == e.w0 {
		if free := t.freeSlot(tb); free >= 0 {
			n.w0 ^= primaryBit
			t.writeSlot(tb, free, n)
			t.writeSlot(fb, e.from.slot, node{})
			ok = true
		}
	}
	t.unlock(second, v2, ok)
	t.unlock(first, v1, ok)
	return ok
}

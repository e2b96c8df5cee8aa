// Package wormhole implements a simplified Wormhole index (Wu, Ni & Jiang,
// EuroSys'19), the paper's "Wormhole" baseline (§6.1): sorted multi-key leaf
// nodes linked in key order, plus a hashed meta-trie over leaf anchor
// prefixes that locates the target leaf with a binary search over prefix
// LENGTHS — O(log L) hash probes for L-byte keys instead of O(log N)
// comparisons.
//
// Simplifications versus the original: byte (not bit) granularity for
// anchors, Go map as the meta-trie hash table, and a
// global RWMutex for thread safety (the paper observes Wormhole's insert
// throughput saturating under concurrency; ours does too, for a different
// reason).
package wormhole

import (
	"bytes"
	"sort"
	"sync"
)

const leafCap = 128

type leaf struct {
	anchor     []byte
	keys       [][]byte
	vals       []uint64
	prev, next *leaf
}

type metaNode struct {
	lmost, rmost *leaf     // leftmost/rightmost leaves whose anchor has this prefix
	children     [4]uint64 // bitmap over next anchor byte
	leafHere     *leaf     // leaf whose anchor equals this prefix exactly
}

// Index is a simplified Wormhole ordered index.
type Index struct {
	mu   sync.RWMutex
	meta map[string]*metaNode
	head *leaf // leftmost leaf (anchor = empty prefix)
	size int
}

// New creates an empty index.
func New() *Index {
	ix := &Index{meta: make(map[string]*metaNode)}
	h := &leaf{anchor: []byte{}}
	ix.head = h
	ix.insertAnchor(h)
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "Wormhole" }

// Len returns the number of stored keys.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.size
}

// ConcurrentSafe implements index.Concurrent.
func (ix *Index) ConcurrentSafe() bool { return true }

func bmHas(bm *[4]uint64, b byte) bool { return bm[b>>6]>>(b&63)&1 != 0 }
func bmSet(bm *[4]uint64, b byte)      { bm[b>>6] |= 1 << (b & 63) }
func bmMaxBelow(bm *[4]uint64, b byte) int {
	for w := int(b) - 1; w >= 0; w-- {
		if bmHas(bm, byte(w)) {
			return w
		}
	}
	return -1
}

// findLeaf locates the leaf that must contain key if present: the leaf with
// the largest anchor ≤ key. Callers hold at least the read lock.
func (ix *Index) findLeaf(key []byte) *leaf {
	// Binary search over prefix lengths for the longest prefix of key that
	// exists in the meta-trie (Wormhole's core trick).
	lo, hi := 0, len(key) // invariant: key[:lo] exists in meta
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if _, ok := ix.meta[string(key[:mid])]; ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	node := ix.meta[string(key[:lo])]
	if lo == len(key) {
		if node.leafHere != nil {
			return node.leafHere
		}
		// All anchors under this prefix extend it and sort above key.
		return node.lmost.prev
	}
	b := key[lo]
	if w := bmMaxBelow(&node.children, b); w >= 0 {
		child := ix.meta[string(append(append([]byte(nil), key[:lo]...), byte(w)))]
		return child.rmost
	}
	if node.leafHere != nil {
		return node.leafHere
	}
	return node.lmost.prev
}

// Get returns the value stored for key.
func (ix *Index) Get(key []byte) (uint64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	l := ix.findLeaf(key)
	if l == nil {
		return 0, false
	}
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i < len(l.keys) && bytes.Equal(l.keys[i], key) {
		return l.vals[i], true
	}
	return 0, false
}

// Set inserts or updates key. added reports whether key was newly inserted.
func (ix *Index) Set(key []byte, value uint64) (added bool, err error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	l := ix.findLeaf(key)
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i < len(l.keys) && bytes.Equal(l.keys[i], key) {
		l.vals[i] = value
		return false, nil
	}
	l.keys = append(l.keys, nil)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = append([]byte(nil), key...)
	l.vals = append(l.vals, 0)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = value
	ix.size++
	if len(l.keys) > leafCap {
		ix.split(l)
	}
	return true, nil
}

// split divides leaf l, registering the right half's anchor in the meta-trie.
func (ix *Index) split(l *leaf) {
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append(make([][]byte, 0, leafCap+1), l.keys[mid:]...),
		vals: append(make([]uint64, 0, leafCap+1), l.vals[mid:]...),
		prev: l,
		next: l.next,
	}
	// Anchor: shortest prefix of right.min strictly greater than left.max —
	// the first differing byte position + 1 (byte granularity).
	leftMax := l.keys[mid-1]
	rightMin := right.keys[0]
	cp := 0
	for cp < len(leftMax) && cp < len(rightMin) && leftMax[cp] == rightMin[cp] {
		cp++
	}
	alen := cp + 1
	if alen > len(rightMin) {
		alen = len(rightMin)
	}
	right.anchor = append([]byte(nil), rightMin[:alen]...)
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	if l.next != nil {
		l.next.prev = right
	}
	l.next = right
	ix.insertAnchor(right)
}

// insertAnchor registers a leaf's anchor and all its prefixes.
func (ix *Index) insertAnchor(l *leaf) {
	a := l.anchor
	for n := 0; n <= len(a); n++ {
		p := string(a[:n])
		node, ok := ix.meta[p]
		if !ok {
			node = &metaNode{lmost: l, rmost: l}
			ix.meta[p] = node
		} else {
			if bytes.Compare(l.anchor, node.lmost.anchor) < 0 {
				node.lmost = l
			}
			if bytes.Compare(l.anchor, node.rmost.anchor) > 0 {
				node.rmost = l
			}
		}
		if n == len(a) {
			node.leafHere = l
		} else {
			bmSet(&node.children, a[n])
		}
	}
}

// Delete removes key. Emptied leaves are retained (their anchors stay in the
// meta-trie); scans skip them.
func (ix *Index) Delete(key []byte) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	l := ix.findLeaf(key)
	if l == nil {
		return false
	}
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i >= len(l.keys) || !bytes.Equal(l.keys[i], key) {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	ix.size--
	return true
}

// Scan visits up to n keys ≥ start in ascending order.
func (ix *Index) Scan(start []byte, n int, fn func(key []byte, value uint64) bool) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	l := ix.findLeaf(start)
	if l == nil {
		l = ix.head
	}
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], start) >= 0 })
	visited := 0
	for l != nil && visited < n {
		for ; i < len(l.keys) && visited < n; i++ {
			visited++
			if !fn(l.keys[i], l.vals[i]) {
				return visited
			}
		}
		l = l.next
		i = 0
	}
	return visited
}

// MemoryOverheadBytes counts leaves, per-key slots, and the meta-trie,
// excluding key bytes (§6.5).
func (ix *Index) MemoryOverheadBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var total int64
	for l := ix.head; l != nil; l = l.next {
		total += 80 + int64(cap(l.keys))*24 + int64(cap(l.vals))*8 + int64(cap(l.anchor))
	}
	// Meta-trie: map entry overhead ≈ 48B + node struct 56B + anchor prefix.
	for p := range ix.meta {
		total += 48 + 56 + int64(len(p))
	}
	return total
}

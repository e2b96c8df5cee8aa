// Package hot implements a height-optimized-trie-like baseline standing in
// for HOT (Binna et al., SIGMOD'18) in the paper's evaluation (§6.1). HOT
// packs a binary PATRICIA trie into wide compound nodes whose fanout adapts
// to the number of discriminating bits. We implement the underlying binary
// PATRICIA (crit-bit) structure directly — which captures HOT's two headline
// properties in the paper's figures: the LOWEST memory per key of all
// baselines (≈ one small node per key) and purely serial pointer-chased
// lookups (no MLP) — but not HOT's compound-node packing or its intra-node
// SIMD search, so our lookups read one crit-bit node per discriminating bit
// where HOT reads one compound node per several. A global RWMutex provides
// thread safety.
package hot

import (
	"bytes"
	"sync"
)

// node is either an internal crit-bit node (leaf == nil) or a leaf holder.
type node struct {
	// Internal: first bit position where the two subtrees differ. Bit
	// positions address the key as a bit string, byte-length-extended: bit
	// i of key k is bitAt(k, i), with "past the end" reading as 0 and a
	// virtual length-terminator ensuring prefixes sort first.
	critBit     int
	left, right *node
	// minLeaf is the smallest leaf of the subtree (internal nodes only);
	// it supports ordered seeks for range scans.
	minLeaf *node

	// Leaf.
	key []byte
	val uint64
}

// subMin returns the minimum leaf of n's subtree.
func (n *node) subMin() *node {
	if n.isLeaf() {
		return n
	}
	return n.minLeaf
}

func (n *node) isLeaf() bool { return n.left == nil && n.right == nil }

// bitAt treats keys as: 8 bits per byte, then a 1 "present" bit per byte
// position to separate a key from its extensions (crit-bit's standard
// length-disambiguation trick, byte granularity).
func bitAt(k []byte, i int) int {
	byteIdx := i / 9
	off := i % 9
	if byteIdx >= len(k) {
		return 0
	}
	if off == 0 {
		return 1 // "byte present" marker
	}
	return int(k[byteIdx] >> (8 - off) & 1)
}

// firstDiffBit returns the first differing bit position of a and b in the
// 9-bit-per-byte encoding, or -1 if equal.
func firstDiffBit(a, b []byte) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < (n+1)*9; i++ {
		if bitAt(a, i) != bitAt(b, i) {
			return i
		}
	}
	return -1
}

// Tree is the HOT-like index.
type Tree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Name implements index.Index.
func (t *Tree) Name() string { return "HOT" }

// Len returns the number of stored keys.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// ConcurrentSafe implements index.Concurrent.
func (t *Tree) ConcurrentSafe() bool { return true }

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	if n == nil {
		return 0, false
	}
	for !n.isLeaf() {
		if bitAt(key, n.critBit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if bytes.Equal(n.key, key) {
		return n.val, true
	}
	return 0, false
}

// Set inserts or updates key. added reports whether key was newly inserted.
func (t *Tree) Set(key []byte, value uint64) (added bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		t.root = &node{key: append([]byte(nil), key...), val: value}
		t.size = 1
		return true, nil
	}
	// Find the best-matching leaf.
	n := t.root
	for !n.isLeaf() {
		if bitAt(key, n.critBit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	diff := firstDiffBit(n.key, key)
	if diff < 0 {
		n.val = value
		return false, nil
	}
	nl := &node{key: append([]byte(nil), key...), val: value}
	// Insert the new internal node at the position where diff fits: walk
	// from the root until reaching a node with critBit > diff or a leaf,
	// maintaining subtree-min pointers along the way.
	link := &t.root
	for {
		cur := *link
		if cur.isLeaf() || cur.critBit > diff {
			inner := &node{critBit: diff}
			if bitAt(key, diff) == 0 {
				inner.left, inner.right = nl, cur
			} else {
				inner.left, inner.right = cur, nl
			}
			inner.minLeaf = inner.left.subMin()
			*link = inner
			t.size++
			return true, nil
		}
		if !cur.isLeaf() && bytes.Compare(key, cur.minLeaf.key) < 0 {
			cur.minLeaf = nl
		}
		if bitAt(key, cur.critBit) == 0 {
			link = &cur.left
		} else {
			link = &cur.right
		}
	}
}

// Delete removes key, recomputing subtree-min pointers along the path.
func (t *Tree) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return false
	}
	var path []*node
	var parentLink **node
	link := &t.root
	for {
		cur := *link
		if cur.isLeaf() {
			if !bytes.Equal(cur.key, key) {
				return false
			}
			if parentLink == nil {
				t.root = nil
			} else {
				p := *parentLink
				if p.left == cur {
					*parentLink = p.right
				} else {
					*parentLink = p.left
				}
			}
			// The spliced-out parent is gone; refresh ancestors' minima.
			for i := len(path) - 2; i >= 0; i-- {
				path[i].minLeaf = path[i].left.subMin()
			}
			t.size--
			return true
		}
		path = append(path, cur)
		parentLink = link
		if bitAt(key, cur.critBit) == 0 {
			link = &cur.left
		} else {
			link = &cur.right
		}
	}
}

// Scan visits up to n keys ≥ start in ascending order. The seek compares
// start against right-subtree minima, so it descends straight to the first
// qualifying leaf and walks in-order from there.
func (t *Tree) Scan(start []byte, n int, fn func(key []byte, value uint64) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil || n <= 0 {
		return 0
	}
	var stack []*node
	nd := t.root
	for !nd.isLeaf() {
		if bytes.Compare(start, nd.right.subMin().key) <= 0 {
			stack = append(stack, nd.right)
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	visited := 0
	emit := func(l *node) bool {
		if bytes.Compare(l.key, start) < 0 {
			return true
		}
		visited++
		if !fn(l.key, l.val) {
			return false
		}
		return visited < n
	}
	if !emit(nd) {
		return visited
	}
	for len(stack) > 0 {
		nd = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for !nd.isLeaf() {
			stack = append(stack, nd.right)
			nd = nd.left
		}
		if !emit(nd) {
			return visited
		}
	}
	return visited
}

// MemoryOverheadBytes counts nodes (compound-packing would shrink internal
// nodes further; we report the raw crit-bit structures), excluding key
// bytes.
func (t *Tree) MemoryOverheadBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd == nil {
			return
		}
		if nd.isLeaf() {
			total += 40 // key header + value + node overhead share
			return
		}
		total += 24 // critBit + two pointers
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
	return total
}

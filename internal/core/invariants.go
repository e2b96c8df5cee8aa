package core

import (
	"bytes"
	"fmt"
)

// CheckInvariants walks the whole trie and verifies its structural
// invariants. It is intended for tests and debugging on a quiescent trie
// (no concurrent writers); it is not part of the hot path.
//
// Checked invariants:
//
//  1. every child reachable from the root exists in the table and verifies
//     (tag, last symbol, parent linkage);
//  2. colors are unique among live same-hash entries;
//  3. every internal non-root node has ≥ 2 children; every jump node's
//     child exists and is not a leaf;
//  4. each internal/jump node's subtree-max locator points to the maximal
//     leaf of its subtree;
//  5. the leaf linked list visits exactly the trie's leaves in ascending
//     key order, starting at the trie minimum;
//  6. the number of leaves equals Len();
//  7. every leaf's key word is well formed: a length code ≤ 9, zero
//     padding past an inline key, and a long key's triple (kept for keys
//     longer than 8 bytes only) inside its chunk;
//  8. the record slots handed out and not released number Len(): only a
//     committed insert takes one, and every delete frees its leaf's;
//  9. every slot's word 2 holds a locator hash below S·t and, for a leaf, a
//     record index below the slots handed out (zero for other nodes);
//  10. every group's head padding word is zero;
//  11. no node holds a field its kind does not use (staleField).
func (tr *Trie) CheckInvariants() error {
	t := tr.tbl.Load()
	w0, w1, w2, _, _, _, ok := tr.rootNode(t)
	if !ok {
		return fmt.Errorf("root not found")
	}
	c := &checker{tr: tr, t: t}
	maxLoc, hasMax, err := c.walk(node{w0, w1, w2}, 0, nil)
	if err != nil {
		return err
	}
	if !tr.cfg.DisableLeafList {
		if rawHasLoc(w0) != hasMax {
			return fmt.Errorf("root hasLoc=%v but subtree max present=%v", rawHasLoc(w0), hasMax)
		}
		if hasMax && rawLoc(w0, w2) != maxLoc {
			return fmt.Errorf("root subtree-max locator mismatch")
		}
	}
	if c.leaves != tr.Len() {
		return fmt.Errorf("walk found %d leaves, Len()=%d", c.leaves, tr.Len())
	}
	tr.recs.mu.Lock()
	live := tr.recs.used - len(tr.recs.free)
	tr.recs.mu.Unlock()
	if live != tr.Len() {
		return fmt.Errorf("%d record slots live, Len()=%d", live, tr.Len())
	}
	if !tr.cfg.DisableLeafList {
		if err := c.checkLeafList(); err != nil {
			return err
		}
	}
	if err := c.checkSlots(); err != nil {
		return err
	}
	return nil
}

type checker struct {
	tr     *Trie
	t      *table
	leaves int
	keys   [][]byte // leaf keys in DFS (= sorted) order
	locs   []locator
}

// walk recursively checks node n (hash h, name prefix of key being built).
// Returns the subtree-max locator.
func (c *checker) walk(n node, h uint64, name []byte) (locator, bool, error) {
	switch rawKind(n.w0) {
	case kindLeaf:
		c.leaves++
		key, err := c.leafKey(n)
		if err != nil {
			return locator{}, false, fmt.Errorf("leaf under %x: %v", name, err)
		}
		c.keys = append(c.keys, key)
		loc := locator{h, rawColor(n.w0)}
		c.locs = append(c.locs, loc)
		return loc, true, nil
	case kindJump:
		jl := rawJumpLen(n.w0)
		if jl == 0 || jl > maxJumpSymbols {
			return locator{}, false, fmt.Errorf("jump node with bad length %d", jl)
		}
		hc := h
		for i := 0; i < jl; i++ {
			s := rawJumpSymbol(n.w1, i)
			if s > maxSymbol {
				return locator{}, false, fmt.Errorf("jump symbol %d out of range", s)
			}
			hc = c.t.step(hc, s)
		}
		child, ok := c.t.lockedChild(n.w0, hc, rawJumpSymbol(n.w1, jl-1))
		if !ok {
			return locator{}, false, fmt.Errorf("jump child missing (name %x)", name)
		}
		if rawKind(child.w0) == kindLeaf {
			return locator{}, false, fmt.Errorf("jump node child is a leaf")
		}
		if child.w0&parentIsJumpBit == 0 {
			return locator{}, false, fmt.Errorf("jump child lacks parentIsJump")
		}
		ml, hm, err := c.walk(child, hc, name)
		if err != nil {
			return locator{}, false, err
		}
		if !c.tr.cfg.DisableLeafList {
			if !hm || !rawHasLoc(n.w0) || rawLoc(n.w0, n.w2) != ml {
				return locator{}, false, fmt.Errorf("jump subtree-max mismatch")
			}
		}
		return ml, true, nil
	case kindInternal:
		nchild := 0
		var maxLoc locator
		var hasMax bool
		for s := 0; s <= maxSymbol; s++ {
			if !bitmapHas(n.w1, byte(s)) {
				continue
			}
			nchild++
			hc := c.t.step(h, byte(s))
			child, ok := c.t.lockedChild(n.w0, hc, byte(s))
			if !ok {
				return locator{}, false, fmt.Errorf("child sym %d missing under %x", s, name)
			}
			if child.w0&parentIsJumpBit != 0 {
				return locator{}, false, fmt.Errorf("regular child has parentIsJump set")
			}
			ml, hm, err := c.walk(child, hc, name)
			if err != nil {
				return locator{}, false, err
			}
			if hm {
				maxLoc, hasMax = ml, true
			}
		}
		isRoot := h == 0 && rawColor(n.w0) == uint8(c.tr.rootColor.Load()) && fLastSym.get(n.w0) == rootLastSym
		if !isRoot && nchild < 2 {
			return locator{}, false, fmt.Errorf("non-root internal node with %d children", nchild)
		}
		if !isRoot && !c.tr.cfg.DisableLeafList {
			if !rawHasLoc(n.w0) || !hasMax || rawLoc(n.w0, n.w2) != maxLoc {
				return locator{}, false, fmt.Errorf("internal subtree-max mismatch (nchild=%d)", nchild)
			}
		}
		return maxLoc, hasMax, nil
	}
	return locator{}, false, fmt.Errorf("walk reached empty entry")
}

// leafKey checks leaf n's key word and returns a copy of its key.
func (c *checker) leafKey(n node) ([]byte, error) {
	code := rawKeyCode(n.w0)
	switch {
	case code > inlineKeyMax+1:
		return nil, fmt.Errorf("key length code %d > %d", code, inlineKeyMax+1)
	case code > 0:
		if kl := code - 1; kl < inlineKeyMax && n.w1>>(8*kl) != 0 {
			return nil, fmt.Errorf("inline key of %d bytes has nonzero padding: %x", kl, n.w1)
		}
	default:
		ci, pos, klen := keyTriple(n.w1)
		if klen <= inlineKeyMax {
			return nil, fmt.Errorf("key of %d bytes kept in a chunk", klen)
		}
		if ci >= uint64(len(*c.tr.recs.chunks.Load())) || pos+klen > recChunkSize {
			return nil, fmt.Errorf("key triple (chunk %d, offset %d, len %d) outside the chunks", ci, pos, klen)
		}
	}
	var kbuf [inlineKeyMax]byte
	return append([]byte(nil), c.tr.recs.leafKey(n.w0, n.w1, &kbuf)...), nil
}

// checkLeafList verifies the linked list matches the DFS leaf order.
func (c *checker) checkLeafList() error {
	for i := 1; i < len(c.keys); i++ {
		if bytes.Compare(c.keys[i-1], c.keys[i]) >= 0 {
			return fmt.Errorf("DFS keys out of order at %d: %x >= %x", i, c.keys[i-1], c.keys[i])
		}
	}
	minLoc, valid := unpackMinLoc(c.tr.minLoc.Load())
	if len(c.keys) == 0 {
		if valid {
			return fmt.Errorf("minLoc set on empty trie")
		}
		return nil
	}
	if !valid {
		return fmt.Errorf("minLoc unset on non-empty trie")
	}
	if minLoc != c.locs[0] {
		return fmt.Errorf("minLoc does not reference the smallest leaf")
	}
	cur := minLoc
	for i := 0; ; i++ {
		n, _, ok := c.t.lockedFind(cur)
		if !ok || rawKind(n.w0) != kindLeaf {
			return fmt.Errorf("leaf list broken at %d", i)
		}
		if i >= len(c.locs) {
			return fmt.Errorf("leaf list longer than leaf count")
		}
		if cur != c.locs[i] {
			return fmt.Errorf("leaf list order mismatch at %d", i)
		}
		key, err := c.leafKey(n)
		if err != nil {
			return fmt.Errorf("leaf list at %d: %v", i, err)
		}
		if !bytes.Equal(key, c.keys[i]) {
			return fmt.Errorf("leaf list key mismatch at %d", i)
		}
		if !rawHasNext(n.w0) {
			if i != len(c.locs)-1 {
				return fmt.Errorf("leaf list ends early at %d/%d", i, len(c.locs))
			}
			return nil
		}
		cur = rawLoc(n.w0, n.w2)
	}
}

// checkSlots verifies every slot and head of the table: colors are unique
// per hash, word 2's locator half is a hash of this table, a leaf's record
// index names a slot the store handed out and a non-leaf's is zero, and
// every group's head padding is zero.
func (c *checker) checkSlots() error {
	t := c.t
	type hc struct {
		h     uint64
		color uint8
	}
	c.tr.recs.mu.Lock()
	used := c.tr.recs.used
	c.tr.recs.mu.Unlock()
	domain := t.buckets * tagCount
	seen := map[hc]bool{}
	for b := uint64(0); b < t.buckets; b++ {
		for s := 0; s < entriesPerBucket; s++ {
			n := t.loadSlot(b, s)
			kind := rawKind(n.w0)
			if kind == kindEmpty {
				continue
			}
			h := t.hashOf(b, rawTag(n.w0), n.w0&primaryBit != 0)
			k := hc{h, rawColor(n.w0)}
			if seen[k] {
				return fmt.Errorf("duplicate (hash,color) = (%d,%d)", h, k.color)
			}
			seen[k] = true
			if lh := n.w2 & hashMask; lh >= domain {
				return fmt.Errorf("bucket %d slot %d: locator hash %d outside [0, %d)", b, s, lh, domain)
			}
			if ri := rawRecIdx(n.w2); kind == kindLeaf && int(ri) >= used {
				return fmt.Errorf("bucket %d slot %d: record index %d, but %d slots handed out", b, s, ri, used)
			} else if kind != kindLeaf && ri != 0 {
				return fmt.Errorf("bucket %d slot %d: non-leaf with record index %d", b, s, ri)
			}
			if f := n.staleField(); f != "" {
				return fmt.Errorf("bucket %d slot %d: %s", b, s, f)
			}
		}
	}
	for g := uint64(0); g < (t.buckets+groupBuckets-1)/groupBuckets; g++ {
		if pad := t.headPad(g); pad != 0 {
			return fmt.Errorf("group %d: head padding %#x", g, pad)
		}
	}
	return nil
}

// staleField describes a field of node n that its kind does not use but
// that is not zero, or returns "". Such a bit is one a
// writer left behind when it changed the node's kind or unlinked it.
func (n node) staleField() string {
	kind := rawKind(n.w0)
	linked := rawHasLoc(n.w0)
	if kind == kindLeaf {
		linked = rawHasNext(n.w0)
	}
	switch {
	case kind == kindLeaf && rawChildColor(n.w0) != 0:
		return "leaf with a childColor"
	case kind == kindLeaf && rawHasLoc(n.w0):
		return "leaf with hasLoc"
	case kind == kindInternal && rawJumpLen(n.w0) != 0:
		return "internal node with a jumpLen"
	case kind == kindInternal && rawChildColor(n.w0) != 0:
		return "internal node with a childColor"
	case kind != kindLeaf && rawHasNext(n.w0):
		return "internal or jump node with hasNext"
	case !linked && rawLoc(n.w0, n.w2) != (locator{}):
		return "unlinked node with a locator"
	case n.w0&parentIsJumpBit != 0 && fParentColor.get(n.w0) != 0:
		return "jump node's child with a parentColor"
	}
	return ""
}

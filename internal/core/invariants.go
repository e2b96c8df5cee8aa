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
//  6. the number of leaves equals Len().
func (tr *Trie) CheckInvariants() error {
	t := tr.tbl.Load()
	w0, w1, w2, b, slot, ver, ok := tr.rootNode(t)
	if !ok {
		return fmt.Errorf("root not found")
	}
	root, rootRef := decodeEntry(w0, w1, w2), entryRef{slotRef{b, slot}, ver}
	c := &checker{tr: tr, t: t}
	maxLoc, hasMax, err := c.walk(root, rootRef, 0, nil)
	if err != nil {
		return err
	}
	if !tr.cfg.DisableLeafList {
		if root.hasLoc != hasMax {
			return fmt.Errorf("root hasLoc=%v but subtree max present=%v", root.hasLoc, hasMax)
		}
		if hasMax && rawLoc(w0, w2) != maxLoc {
			return fmt.Errorf("root subtree-max locator mismatch")
		}
	}
	if c.leaves != tr.Len() {
		return fmt.Errorf("walk found %d leaves, Len()=%d", c.leaves, tr.Len())
	}
	if !tr.cfg.DisableLeafList {
		if err := c.checkLeafList(); err != nil {
			return err
		}
	}
	if err := c.checkColors(); err != nil {
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

// walk recursively checks node e (hash h, name prefix of key being built).
// Returns the subtree-max locator.
func (c *checker) walk(e entry, ref entryRef, h uint64, name []byte) (locator, bool, error) {
	switch e.kind {
	case kindLeaf:
		c.leaves++
		key := c.tr.recs.key(e.recIdx)
		c.keys = append(c.keys, append([]byte(nil), key...))
		loc := locator{h, e.color}
		c.locs = append(c.locs, loc)
		return loc, true, nil
	case kindJump:
		if e.jumpLen == 0 || int(e.jumpLen) > maxJumpSymbols {
			return locator{}, false, fmt.Errorf("jump node with bad length %d", e.jumpLen)
		}
		hc := h
		for i := 0; i < int(e.jumpLen); i++ {
			s := e.jumpSymbol(i)
			if s > maxSymbol {
				return locator{}, false, fmt.Errorf("jump symbol %d out of range", s)
			}
			hc = c.t.step(hc, s)
		}
		last := e.jumpSymbol(int(e.jumpLen) - 1)
		child, cref, ok := c.t.lockedFindChildByColor(hc, last, e.childColor)
		if !ok {
			return locator{}, false, fmt.Errorf("jump child missing (name %x)", name)
		}
		if child.kind == kindLeaf {
			return locator{}, false, fmt.Errorf("jump node child is a leaf")
		}
		if !child.parentIsJump {
			return locator{}, false, fmt.Errorf("jump child lacks parentIsJump")
		}
		ml, hm, err := c.walk(child, entryRef{cref, 0}, hc, name)
		if err != nil {
			return locator{}, false, err
		}
		if !c.tr.cfg.DisableLeafList {
			if !hm || !e.hasLoc || (locator{e.locHash, e.locColor}) != ml {
				return locator{}, false, fmt.Errorf("jump subtree-max mismatch")
			}
		}
		return ml, true, nil
	case kindInternal:
		nchild := 0
		var maxLoc locator
		var hasMax bool
		for s := 0; s <= maxSymbol; s++ {
			if !bitmapHas(e.w1, byte(s)) {
				continue
			}
			nchild++
			hc := c.t.step(h, byte(s))
			child, cref, ok := c.t.lockedFindChildByParent(hc, byte(s), e.color)
			if !ok {
				return locator{}, false, fmt.Errorf("child sym %d missing under %x", s, name)
			}
			if child.parentIsJump {
				return locator{}, false, fmt.Errorf("regular child has parentIsJump set")
			}
			ml, hm, err := c.walk(child, entryRef{cref, 0}, hc, name)
			if err != nil {
				return locator{}, false, err
			}
			if hm {
				maxLoc, hasMax = ml, true
			}
		}
		isRoot := h == 0 && e.color == uint8(c.tr.rootColor.Load()) && e.lastSym == rootLastSym
		if !isRoot && nchild < 2 {
			return locator{}, false, fmt.Errorf("non-root internal node with %d children", nchild)
		}
		if !isRoot && !c.tr.cfg.DisableLeafList {
			if !e.hasLoc || !hasMax || (locator{e.locHash, e.locColor}) != maxLoc {
				return locator{}, false, fmt.Errorf("internal subtree-max mismatch (nchild=%d)", nchild)
			}
		}
		return maxLoc, hasMax, nil
	}
	return locator{}, false, fmt.Errorf("walk reached empty entry")
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
		e, _, ok := c.t.lockedFind(cur)
		if !ok || e.kind != kindLeaf {
			return fmt.Errorf("leaf list broken at %d", i)
		}
		if i >= len(c.locs) {
			return fmt.Errorf("leaf list longer than leaf count")
		}
		if cur != c.locs[i] {
			return fmt.Errorf("leaf list order mismatch at %d", i)
		}
		key := c.tr.recs.key(e.recIdx)
		if !bytes.Equal(key, c.keys[i]) {
			return fmt.Errorf("leaf list key mismatch at %d", i)
		}
		if !e.hasNext {
			if i != len(c.locs)-1 {
				return fmt.Errorf("leaf list ends early at %d/%d", i, len(c.locs))
			}
			return nil
		}
		cur = locator{e.locHash, e.locColor}
	}
}

// checkColors verifies color uniqueness per hash.
func (c *checker) checkColors() error {
	t := c.t
	type hc struct {
		h     uint64
		color uint8
	}
	seen := map[hc]bool{}
	for b := uint64(0); b < t.buckets; b++ {
		for s := 0; s < entriesPerBucket; s++ {
			base := b*bucketWords + 1 + uint64(s)*3
			e := decodeEntry(t.words[base], t.words[base+1], t.words[base+2])
			if e.kind == kindEmpty {
				continue
			}
			h := t.hashOf(b, e.tag, e.primary)
			k := hc{h, e.color}
			if seen[k] {
				return fmt.Errorf("duplicate (hash,color) = (%d,%d)", h, e.color)
			}
			seen[k] = true
		}
	}
	return nil
}

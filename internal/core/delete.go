package core

import (
	"math/bits"

	"repro/internal/keys"
)

// Deletion (§4.5): find the leaf and its predecessor, clear the leaf's bit
// in its parent's bitmap, unlink it from the leaf list, update subtree-max
// locators that pointed at it, and collapse the surrounding structure:
//
//   - if the parent is left with a single child that is a leaf, the whole
//     single-leaf subtree (the "tail") is replaced by that leaf, hoisted to
//     the shallowest position (past any jump nodes directly above);
//   - if the single remaining child is an interior node, the parent becomes
//     a jump node toward it (path compression), merging with the child when
//     the child is itself a short-enough jump node.
//
// Hoisting moves a leaf, changing its locator; every reference to the old
// locator (a predecessor's next pointer, ancestors' subtree-max, the trie
// minimum) is rewritten in the same critical section.
//
// The paper's artifact omits deletions (§6.1); this implements the design
// described in the paper as an extension.

// Delete removes key k. It reports whether the key was present.
func (tr *Trie) Delete(k []byte) bool {
	if len(k) > MaxKeyLen {
		return false
	}
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	var pbuf [32]pathNode
	path := pbuf[:0]
	for {
		var present, ok bool
		present, ok, path = tr.deleteOnce(tr.tbl.Load(), syms, k, path)
		if ok {
			return present
		}
	}
}

// deleteOnce makes one attempt to delete k. ok reports whether the attempt
// decided; present, whether k was there (and is now deleted).
func (tr *Trie) deleteOnce(t *table, syms []byte, k []byte, path []pathNode) (present, ok bool, _ []pathNode) {
	var st searchState
	path, st = tr.searchPath(t, syms, path)
	if st.outcome == soRestart {
		return false, false, path
	}
	if st.outcome != soLeaf {
		return false, true, path
	}
	L := &path[len(path)-1]
	if !tr.recs.leafKeyIs(L.w0, L.w1, k) {
		return false, true, path
	}
	P := &path[len(path)-2]
	if rawKind(P.w0) != kindInternal {
		// A leaf's parent is always regular (jump children are never
		// leaves); a mismatch means a torn read.
		return false, false, path
	}
	s := syms[L.depth-1]
	lLoc := L.loc()

	p := newPlan(t)
	defer p.recycle()
	for i := range path {
		p.addRef(path[i].ref)
	}

	// Predecessor of k among remaining keys.
	var pred predLeaf
	var predFound bool
	if !tr.cfg.DisableLeafList {
		var ok bool
		pred, predFound, ok = t.predViaAncestors(path[:len(path)-1], syms)
		if !ok {
			return false, false, path
		}
		p.addPred(&pred, predFound)
	}

	// Subtree-max rule: ancestors whose max was L now have pred as max.
	if !tr.cfg.DisableLeafList {
		for i := range path[:len(path)-1] {
			n := &path[i]
			if rawKind(n.w0) == kindLeaf || !rawHasLoc(n.w0) || rawLoc(n.w0, n.w2) != lLoc {
				continue
			}
			m := p.modify(n)
			if predFound {
				m.setLoc(pred.loc())
			} else {
				// Only a now-empty subtree can lose its max with no
				// predecessor anywhere; that happens only at the root.
				m.setFlag(hasLocBit, false)
				m.setLoc(locator{})
			}
		}
	}

	// Unlink from the leaf list.
	if !tr.cfg.DisableLeafList {
		if predFound {
			p.modify(&pred.pathNode).takeNext(&L.node)
		} else {
			if _, ok := p.snapshot(0); !ok {
				return false, false, path
			}
			if rawHasNext(L.w0) {
				p.setMin(rawLoc(L.w0, L.w2))
			} else {
				p.clearMin()
			}
		}
	}

	// Structural update around the parent.
	pm := p.modify(P)
	pm.w1 = bitmapClear(pm.w1, s)

	var moved bool
	var cOldLoc, cNewLoc locator
	if len(path) > 2 && bits.OnesCount64(pm.w1) == 1 { // P is not the root
		s2 := byte(bits.TrailingZeros64(pm.w1))
		hC := t.step(P.hash, s2)
		C, ok := asNode(t.childOf(P.w0, P.ref.bucket, P.ref.ver, hC, s2))
		if !ok {
			return false, false, path
		}
		C.hash = hC
		p.addRef(C.ref)
		if rawKind(C.w0) == kindLeaf {
			// Hoist C to the shallowest position above P whose parent
			// is not a jump node.
			hostIdx := len(path) - 2
			for hostIdx > 1 && rawKind(path[hostIdx-1].w0) == kindJump {
				hostIdx--
			}
			host := &path[hostIdx]
			cOldLoc = C.loc()
			cNewLoc = host.loc()
			moved = true

			// The host keeps its identity (tag, primacy, name, colors)
			// and becomes C's leaf, with C's key and record; takeNext
			// sets word 2's locator half.
			hm := p.modify(host)
			hm.set(fKind, kindLeaf)
			hm.set(fJumpLen, uint8(rawKeyCode(C.w0)))
			hm.set(fChildColor, 0)
			hm.setFlag(hasLocBit, false)
			hm.w1, hm.w2 = C.w1, C.w2
			if rawHasNext(C.w0) && rawLoc(C.w0, C.w2) == lLoc {
				// C's successor was the deleted leaf: skip over it.
				hm.takeNext(&L.node)
			} else {
				hm.takeNext(&C.node)
			}

			// The leaf pointing at C must be retargeted. If k < kc the
			// pointer is pred→L→C and the pred.next update above already
			// routes to C (via L.next == C); translation below fixes it
			// to the new location. If kc < k, C's own predecessor is
			// found above P.
			if s > s2 && !tr.cfg.DisableLeafList {
				prevC, prevFound, ok := t.predViaAncestors(path[:len(path)-2], syms)
				if !ok {
					return false, false, path
				}
				p.addPred(&prevC, prevFound)
				if prevFound {
					if prevC.ref.slotRef != C.ref.slotRef {
						pv := p.modify(&prevC.pathNode)
						pv.setLoc(cNewLoc)
						pv.setFlag(hasNextBit, true)
					}
				} else {
					if _, ok := p.snapshot(0); !ok {
						return false, false, path
					}
					p.setMin(cNewLoc)
				}
			}

			// Ancestors above the host whose subtree-max was C must
			// track it to its new position.
			if !tr.cfg.DisableLeafList {
				for i := 0; i < hostIdx; i++ {
					n := &path[i]
					if rawKind(n.w0) != kindLeaf && rawHasLoc(n.w0) && rawLoc(n.w0, n.w2) == cOldLoc {
						p.modify(n).setLoc(cNewLoc)
					}
				}
			}

			// Remove the tail: everything strictly between host and L,
			// plus C's old slot.
			for i := hostIdx + 1; i < len(path)-1; i++ {
				p.clearEntry(path[i].ref)
			}
			p.clearEntry(C.ref)
		} else if n := rawJumpLen(C.w0); rawKind(C.w0) == kindJump && 1+n <= maxJumpSymbols {
			// Convert P into a jump node toward C's child, merging C.
			pm.set(fKind, kindJump)
			pm.set(fJumpLen, uint8(1+n))
			pm.w1 = uint64(s2) | jumpSymbolRange(C.w1, 0, n)<<6
			pm.set(fChildColor, rawChildColor(C.w0))
			p.clearEntry(C.ref)
		} else {
			// Convert P into a jump node toward C.
			pm.set(fKind, kindJump)
			pm.set(fJumpLen, 1)
			pm.w1 = uint64(s2)
			pm.set(fChildColor, rawColor(C.w0))
			p.modify(&C).setParent(0, true)
		}
	}

	// Remove the leaf itself.
	p.clearEntry(L.ref)

	// Translate every reference to C's old locator (the hoist moved it).
	if moved {
		for i := range p.mods {
			p.mods[i].n.translateLoc(cOldLoc, cNewLoc)
		}
		for i := range p.writes {
			p.writes[i].n.translateLoc(cOldLoc, cNewLoc)
		}
		if p.minUpdate && !p.minClear && p.newMin == cOldLoc {
			p.newMin = cNewLoc
		}
	}

	if p.failed {
		return false, false, path
	}
	if !p.apply(tr) {
		return false, false, path
	}
	tr.recs.release(rawRecIdx(L.w2))
	tr.count.Add(-1)
	return true, true, path
}

// translateLoc rewrites n's locator if it references from.
func (n *node) translateLoc(from, to locator) {
	linked := rawHasLoc(n.w0) // internal and jump nodes: subtree-max
	if rawKind(n.w0) == kindLeaf {
		linked = rawHasNext(n.w0)
	}
	if linked && rawLoc(n.w0, n.w2) == from {
		n.setLoc(to)
	}
}

package core

import "math/bits"

// Predecessor search (§4.4, Figure 5): ascend the search path until an
// ancestor has a child smaller than the path's branch symbol, then follow
// that child's subtree-max locator straight to the predecessor leaf. The
// locator skips the whole down-traversal, which could otherwise not be
// parallelized (the max leaf's key is unknown).

// predLeaf describes a predecessor leaf found by the walk. via is the node
// the walk reached it through (the ancestor's sibling subtree, or the leaf
// itself); with the leaf's ref it is everything the walk read that a writer
// must validate, and plan.addPred registers both.
type predLeaf struct {
	pathNode
	via entryRef
}

// maxSetBitBelow returns the largest symbol < s present in bitmap w, or -1.
func maxSetBitBelow(w uint64, s byte) int {
	masked := w & (1<<uint(s) - 1)
	if masked == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(masked)
}

// predViaAncestors finds the predecessor of the key whose branch symbols are
// syms, walking up the recorded ancestors nodes[0..len). For each regular
// ancestor at depth d the branch symbol is syms[d]; jump ancestors cannot
// branch and are skipped.
//
// Returns found=false when the key has no predecessor (it would be the
// global minimum), ok=false on concurrent conflict (restart the operation).
func (t *table) predViaAncestors(nodes []pathNode, syms []byte) (p predLeaf, found, ok bool) {
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		if rawKind(n.w0) != kindInternal {
			continue
		}
		sib := maxSetBitBelow(n.w1, syms[n.depth])
		if sib < 0 {
			continue
		}
		hs := t.step(n.hash, byte(sib))
		child, cok := asNode(t.childOf(n.w0, n.ref.bucket, n.ref.ver, hs, byte(sib)))
		if !cok {
			return predLeaf{}, false, false
		}
		child.hash = hs
		if rawKind(child.w0) == kindLeaf {
			return predLeaf{child, child.ref}, true, true
		}
		// Follow the sibling's subtree-max locator to the predecessor leaf.
		leaf, lok := t.followLocator(rawLoc(child.w0, child.w2), child.ref)
		return predLeaf{leaf, child.ref}, lok, lok
	}
	return predLeaf{}, false, true
}

// maxLeafOf resolves node's subtree-max locator to its leaf. node must be an
// internal or jump node with a valid locator.
func (t *table) maxLeafOf(n *pathNode) (predLeaf, bool) {
	leaf, ok := t.followLocator(rawLoc(n.w0, n.w2), n.ref)
	return predLeaf{leaf, leaf.ref}, ok
}

package core

import "repro/internal/keys"

// Insertion (§4.5). A descent finds the final node from which the search can
// no longer advance:
//
//   - a regular node missing the child bit → add a leaf under it;
//   - a leaf → the stored key and the new key are split into a chain of
//     (jump-compressed) nodes for their common prefix, with two leaves below;
//   - a jump node with a symbol mismatch → the jump is split at the mismatch
//     into (prefix jump, regular branch node, suffix jump) and a leaf added.
//
// Afterwards the new leaf is linked into the sorted leaf list (requiring a
// predecessor search) and subtree-max locators on the path are updated.

// insertion attempt results
const (
	insDone = iota
	insRetry
	insNeedRoom
	insFull
)

// Set inserts key k with value v, or updates the value if k is present.
// added reports whether k was newly inserted rather than updated in place.
func (tr *Trie) Set(k []byte, v uint64) (added bool, err error) {
	if len(k) > MaxKeyLen {
		return false, ErrKeyTooLong
	}
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	var pbuf [32]pathNode
	path := pbuf[:0]
	var rbuf [8]uint64
	room := roomRequest{reserved: rbuf[:0]}
	roomAttempts := 0
	for {
		t := tr.tbl.Load()
		var status int
		status, added, room, path = tr.insertOnce(t, syms, k, v, path, room)
		switch status {
		case insDone:
			return added, nil
		case insRetry:
			continue
		case insNeedRoom:
			// Bound eviction attempts per insert: repeated failures mean the
			// table is effectively full even if isolated slots exist.
			roomAttempts++
			if roomAttempts <= 16 && tr.makeRoom(t, room) {
				continue
			}
			fallthrough
		case insFull:
			if tr.cfg.AutoResize {
				if err := tr.resize(t); err != nil {
					return false, err
				}
				roomAttempts = 0
				continue
			}
			return false, ErrTableFull
		}
	}
}

// roomRequest is what an insert whose plan found no free slot asks makeRoom
// for: a slot for hash h. reserved lists the bucket of every slot the
// plan's earlier placements took. The plan did not commit, so the table
// still shows those slots free, but its next attempt takes them again.
type roomRequest struct {
	h        uint64
	reserved []uint64
}

func (tr *Trie) insertOnce(t *table, syms []byte, k []byte, v uint64, path []pathNode, room roomRequest) (int, bool, roomRequest, []pathNode) {
	var st searchState
	path, st = tr.searchPath(t, syms, path)
	if st.outcome == soRestart {
		return insRetry, false, room, path
	}
	term := st.terminal()
	if st.outcome == soLeaf && tr.recs.leafKeyIs(term.w0, term.w1, k) {
		// Update in place: lock the leaf's bucket to pin the record.
		if !t.tryLock(term.ref.bucket, term.ref.ver) {
			return insRetry, false, room, path
		}
		tr.recs.setValue(rawRecIdx(term.w2), v)
		t.unlock(term.ref.bucket, term.ref.ver, false)
		return insDone, false, room, path
	}
	status, room := tr.insertPlanned(t, &st, syms, k, v, room)
	return status, status == insDone, room, path
}

// insertPlanned plans and applies the insertion of k at the end of descent
// st. The key takes its record only if the plan commits (plan.apply). A
// plan that found no free slot fills room in.
func (tr *Trie) insertPlanned(t *table, st *searchState, syms, k []byte, v uint64, room roomRequest) (int, roomRequest) {
	p := newPlan(t)
	defer p.recycle()
	p.key, p.val = append(p.key[:0], k...), v
	ok := tr.planInsert(p, st, syms)
	switch {
	case p.colorsFull:
		return insFull, room
	case p.needRoom:
		room.h = p.needRoomHash
		room.reserved = room.reserved[:0]
		for i := range p.writes {
			room.reserved = append(room.reserved, p.writes[i].b)
		}
		return insNeedRoom, room
	case ok && p.apply(tr):
		tr.count.Add(1)
		return insDone, room
	}
	return insRetry, room
}

// planInsert plans the insertion of p's key at the end of descent st. The plan
// validates the whole descent path, not only the nodes it writes: what an
// ancestor held when it was read (its child bitmap, say) decides the
// predecessor the new leaf is linked after.
func (tr *Trie) planInsert(p *plan, st *searchState, syms []byte) bool {
	p.check(st.path)
	switch st.outcome {
	case soMissing:
		return tr.planSimpleLeaf(p, st.path, syms, st.idx)
	case soLeaf:
		return tr.planLeafSplit(p, st.path, syms)
	}
	return tr.planJumpSplit(p, st.path, syms, st.idx, st.jumpOff)
}

// linkLeaf wires the new leaf (write index li, locator lloc) into the sorted
// leaf list after predecessor pred (or as the new minimum when absent), and
// applies the subtree-max update rule to the path: every ancestor whose
// subtree-max equals matchLoc now has the new leaf as its maximum.
// ancestors excludes nodes whose locators the caller sets explicitly.
func (tr *Trie) linkLeaf(p *plan, ancestors []pathNode, li int, lloc locator,
	pred predLeaf, predFound bool, matchLoc locator, matchValid bool) bool {
	if tr.cfg.DisableLeafList {
		return true
	}
	leaf := p.entOf(li)
	if predFound {
		leaf.takeNext(&pred.node)
		pm := p.modify(&pred.pathNode)
		pm.setFlag(hasNextBit, true)
		pm.setLoc(lloc)
	} else {
		// New global minimum. Register bucket 0 first (serializes min
		// updates), then read the current min.
		if _, ok := p.snapshot(0); !ok {
			return false
		}
		if oldMin, valid := unpackMinLoc(tr.minLoc.Load()); valid {
			leaf.setFlag(hasNextBit, true)
			leaf.setLoc(oldMin)
		}
		p.setMin(lloc)
	}
	for i := range ancestors {
		n := &ancestors[i]
		if rawKind(n.w0) == kindLeaf {
			continue
		}
		switch {
		case !rawHasLoc(n.w0):
			// Only the root of an empty trie lacks a subtree-max.
			m := p.modify(n)
			m.setFlag(hasLocBit, true)
			m.setLoc(lloc)
		case matchValid && rawLoc(n.w0, n.w2) == matchLoc:
			p.modify(n).setLoc(lloc)
		}
	}
	return true
}

// planSimpleLeaf handles soMissing: a new leaf under regular node
// path[last] for symbol syms[idx].
func (tr *Trie) planSimpleLeaf(p *plan, path []pathNode, syms []byte, idx int) bool {
	term := &path[len(path)-1]
	s := syms[idx]
	hLeaf := p.t.step(term.hash, s)

	var pred predLeaf
	var predFound bool
	if !tr.cfg.DisableLeafList {
		var ok bool
		pred, predFound, ok = p.t.predViaAncestors(path, syms)
		if !ok {
			return false
		}
		p.addPred(&pred, predFound)
	}

	li, lloc := p.placeLeaf(hLeaf, s, rawColor(term.w0))
	if li < 0 {
		return false
	}

	pm := p.modify(term)
	pm.w1 = bitmapSet(pm.w1, s)

	return tr.linkLeaf(p, path, li, lloc, pred, predFound, pred.loc(), predFound)
}

// planLeafSplit handles soLeaf with a different stored key: replace leaf L
// (name k[:j]) with a chain of jump nodes covering the common prefix, a
// regular branch node at the divergence, and two leaves.
func (tr *Trie) planLeafSplit(p *plan, path []pathNode, syms []byte) bool {
	L := &path[len(path)-1]
	j := L.depth
	var kbuf [inlineKeyMax]byte
	oldKey := tr.recs.leafKey(L.w0, L.w1, &kbuf)
	var obuf [96]byte
	osyms := keys.AppendSymbols(obuf[:0], oldKey)

	// First divergence; guaranteed to exist at or after j because the
	// terminator makes no key a symbol-prefix of another.
	d := j
	for d < len(syms) && d < len(osyms) && syms[d] == osyms[d] {
		d++
	}
	if d >= len(syms) || d >= len(osyms) {
		return false // torn read: keys identical-prefixed beyond bounds
	}
	sNew, sOld := syms[d], osyms[d]

	// Hash of k[:d] (== oldKey[:d]).
	hD := L.hash
	for m := j; m < d; m++ {
		hD = p.t.step(hD, syms[m])
	}

	// Branch node R at depth d. If d == j it reuses L's entry identity.
	var rColor uint8
	if d == j {
		rm := p.modify(L)
		rm.set(fKind, kindInternal)
		rm.w2 &= hashMask // no record
		rm.setFlag(hasNextBit, false)
		rm.w1 = bitmapSet(bitmapSet(0, sNew), sOld)
		rm.set(fJumpLen, 0)
		rColor = rawColor(L.w0)
	} else {
		var ok bool
		rColor, ok = tr.placeChain(p, path, syms, j, d, hD, sNew, sOld)
		if !ok {
			return false
		}
	}

	// Two leaves at depth d+1.
	hNew := p.t.step(hD, sNew)
	hOldLeaf := p.t.step(hD, sOld)
	liNew, locNew := p.placeLeaf(hNew, sNew, rColor)
	// The old leaf keeps L's key (length code and word) and record.
	liOld, locOld := p.place(hOldLeaf, node{
		w0: newWord0(kindLeaf, sOld) | fParentColor.put(rColor) | fJumpLen.put(uint8(rawKeyCode(L.w0))),
		w1: L.w1,
		w2: L.w2 &^ hashMask,
	})
	if liNew < 0 || liOld < 0 {
		return false
	}

	bigLoc := locNew
	if sOld > sNew {
		bigLoc = locOld
	}

	// Patch the chain's subtree-max locators: L's entry heads the chain (or
	// is R), and every other node placed so far but the two leaves is chain,
	// placed with the locator deferred to here.
	for i := range p.writes {
		if w := &p.writes[i].n; rawKind(w.w0) != kindLeaf {
			w.setFlag(hasLocBit, true)
			w.setLoc(bigLoc)
		}
	}
	lm := p.modify(L)
	lm.setFlag(hasLocBit, true)
	lm.setLoc(bigLoc)

	if tr.cfg.DisableLeafList {
		return true
	}

	// Leaf-list wiring. pred(min(k, oldKey)) is found by walking L's
	// ancestors; the two new leaves are adjacent in key order.
	prev, prevFound, ok := p.t.predViaAncestors(path[:len(path)-1], syms)
	if !ok {
		return false
	}
	p.addPred(&prev, prevFound)

	newLeaf := p.entOf(liNew)
	oldLeaf := p.entOf(liOld)
	var firstLoc locator
	if sOld < sNew { // oldKey < k: prev → old → new → L.next
		oldLeaf.setFlag(hasNextBit, true)
		oldLeaf.setLoc(locNew)
		newLeaf.takeNext(&L.node)
		firstLoc = locOld
	} else { // k < oldKey: prev → new → old → L.next
		newLeaf.setFlag(hasNextBit, true)
		newLeaf.setLoc(locOld)
		oldLeaf.takeNext(&L.node)
		firstLoc = locNew
	}
	if prevFound {
		pm := p.modify(&prev.pathNode)
		pm.setFlag(hasNextBit, true)
		pm.setLoc(firstLoc)
	} else {
		if _, ok := p.snapshot(0); !ok {
			return false
		}
		p.setMin(firstLoc)
	}

	// Ancestors whose max was L now have the larger of the two leaves.
	oldLLoc := L.loc()
	for i := range path[:len(path)-1] {
		n := &path[i]
		if rawKind(n.w0) == kindLeaf {
			continue
		}
		if !rawHasLoc(n.w0) || rawLoc(n.w0, n.w2) == oldLLoc {
			m := p.modify(n)
			m.setFlag(hasLocBit, true)
			m.setLoc(bigLoc)
		}
	}
	return true
}

// placeChain converts L (path's terminal leaf, name k[:j]) into the head of
// a chain of jump nodes covering symbols syms[j..d), ending at a new regular
// branch node R at depth d with child bits {sNew, sOld}. Returns R's color.
func (tr *Trie) placeChain(p *plan, path []pathNode, syms []byte, j, d int, hD uint64, sNew, sOld byte) (uint8, bool) {
	L := &path[len(path)-1]

	// R is placed first so jump nodes can reference child colors; jumps are
	// then placed bottom-up.
	rIdx, rLoc := p.place(hD, node{
		w0: newWord0(kindInternal, syms[d-1]) | parentIsJumpBit,
		w1: bitmapSet(bitmapSet(0, sNew), sOld),
	})
	if rIdx < 0 {
		return 0, false
	}

	// Segment [j, d) into jump groups of ≤ maxJumpSymbols, bottom-up.
	// seg boundaries: head group starts at j and reuses L's entry.
	n := d - j
	nGroups := (n + maxJumpSymbols - 1) / maxJumpSymbols
	childColor := rLoc.color
	// Place groups from the last (deepest) to the second; the first group
	// rewrites L's entry.
	for g := nGroups - 1; g >= 1; g-- {
		start := j + g*maxJumpSymbols
		end := start + maxJumpSymbols
		if end > d {
			end = d
		}
		hStart := L.hash
		for m := j; m < start; m++ {
			hStart = p.t.step(hStart, syms[m])
		}
		idx, loc := p.place(hStart, node{
			w0: newWord0(kindJump, syms[start-1]) | parentIsJumpBit |
				fJumpLen.put(uint8(end-start)) | fChildColor.put(childColor),
			w1: packJumpSymbols(syms[start:end]),
		})
		if idx < 0 {
			return 0, false
		}
		childColor = loc.color
	}
	headEnd := j + maxJumpSymbols
	if headEnd > d {
		headEnd = d
	}
	hm := p.modify(L)
	hm.set(fKind, kindJump)
	hm.w2 &= hashMask // no record
	hm.setFlag(hasNextBit, false)
	hm.setFlag(hasLocBit, false)
	hm.set(fJumpLen, uint8(headEnd-j))
	hm.w1 = packJumpSymbols(syms[j:headEnd])
	hm.set(fChildColor, childColor)
	return rLoc.color, true
}

// planJumpSplit handles soJumpMismatch: jump node J (depth j, jumpLen m)
// diverges from the key at offset off (global symbol index idx).
func (tr *Trie) planJumpSplit(p *plan, path []pathNode, syms []byte, idx, off int) bool {
	J := &path[len(path)-1]
	j := J.depth
	m := rawJumpLen(J.w0)
	sOld := rawJumpSymbol(J.w1, off)
	sNew := syms[idx]

	// Hash of k[:idx] — step through the matched jump prefix.
	hR := J.hash
	for q := j; q < idx; q++ {
		hR = p.t.step(hR, syms[q])
	}
	hOld := p.t.step(hR, sOld)
	hNew := p.t.step(hR, sNew)

	oldMaxLoc := rawLoc(J.w0, J.w2)
	oldHasLoc := rawHasLoc(J.w0)

	// Branch node R.
	rBitmap := bitmapSet(bitmapSet(0, sOld), sNew)
	var rIdx = -1
	var rColor uint8
	if off == 0 {
		rm := p.modify(J)
		rm.set(fKind, kindInternal)
		rm.set(fJumpLen, 0)
		rm.set(fChildColor, 0)
		rm.w1 = rBitmap
		rColor = rawColor(J.w0)
	} else {
		var rLoc locator
		rIdx, rLoc = p.place(hR, node{
			w0: newWord0(kindInternal, syms[idx-1]) | parentIsJumpBit,
			w1: rBitmap,
		})
		if rIdx < 0 {
			return false
		}
		rColor = rLoc.color
		jm := p.modify(J)
		jm.set(fJumpLen, uint8(off))
		jm.w1 = jumpSymbolRange(J.w1, 0, off)
		jm.set(fChildColor, rColor)
	}

	// Old branch below R.
	if off+1 < m {
		// The old branch keeps J's child and subtree-max locator.
		ob := node{
			w0: newWord0(kindJump, sOld) | fParentColor.put(rColor) |
				fJumpLen.put(uint8(m-off-1)) | fChildColor.put(rawChildColor(J.w0)),
			w1: jumpSymbolRange(J.w1, off+1, m),
		}
		ob.setFlag(hasLocBit, oldHasLoc)
		ob.setLoc(oldMaxLoc)
		si, _ := p.place(hOld, ob)
		if si < 0 {
			return false
		}
	} else {
		// J's original child becomes R's direct child: its parentColor
		// becomes meaningful.
		oc, ok := asNode(p.t.childOf(J.w0, J.ref.bucket, J.ref.ver, hOld, sOld))
		if !ok {
			return false
		}
		p.modify(&oc).setParent(rColor, false)
	}

	// New leaf.
	li, lloc := p.placeLeaf(hNew, sNew, rColor)
	if li < 0 {
		return false
	}

	// Subtree-max locators.
	bigLoc := lloc
	if sOld > sNew {
		bigLoc = oldMaxLoc
	}
	if rIdx >= 0 {
		r := p.entOf(rIdx)
		r.setFlag(hasLocBit, true)
		r.setLoc(bigLoc)
	}
	jm := p.modify(J) // returns the mod registered above
	jm.setFlag(hasLocBit, true)
	jm.setLoc(bigLoc)

	if tr.cfg.DisableLeafList {
		return true
	}

	// Predecessor: the old subtree's max when the new key branches above it;
	// otherwise an ancestor walk.
	var pred predLeaf
	var predFound bool
	if sNew > sOld {
		if !oldHasLoc {
			return false
		}
		var ok bool
		pred, ok = p.t.maxLeafOf(J)
		if !ok {
			return false
		}
		predFound = true
		p.addRef(pred.ref)
	} else {
		var ok bool
		pred, predFound, ok = p.t.predViaAncestors(path[:len(path)-1], syms)
		if !ok {
			return false
		}
		p.addPred(&pred, predFound)
	}

	matchLoc := oldMaxLoc
	matchValid := sNew > sOld // ancestors tracking the old subtree max
	return tr.linkLeaf(p, path[:len(path)-1], li, lloc, pred, predFound, matchLoc, matchValid)
}

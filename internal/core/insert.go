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
	roomAttempts := 0
	for {
		t := tr.tbl.Load()
		var status int
		var roomHash uint64
		status, added, roomHash, path = tr.insertOnce(t, syms, k, v, path)
		switch status {
		case insDone:
			return added, nil
		case insRetry:
			continue
		case insNeedRoom:
			// Bound eviction attempts per insert: repeated failures mean the
			// table is effectively full even if isolated slots exist.
			roomAttempts++
			if roomAttempts <= 16 && tr.makeRoom(t, roomHash) {
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

func (tr *Trie) insertOnce(t *table, syms []byte, k []byte, v uint64, path []pathNode) (int, bool, uint64, []pathNode) {
	var st searchState
	path, st = tr.searchPath(t, syms, path)
	if st.outcome == soRestart {
		return insRetry, false, 0, path
	}
	term := st.terminal()
	if st.outcome == soLeaf && tr.recs.leafKeyIs(term.w0, term.w1, k) {
		// Update in place: lock the leaf's bucket to pin the record.
		if !t.tryLock(term.ref.bucket, term.ref.ver) {
			return insRetry, false, 0, path
		}
		tr.recs.setValue(rawRecIdx(term.w0), v)
		t.unlock(term.ref.bucket, term.ref.ver, false)
		return insDone, false, 0, path
	}
	status, roomHash := tr.insertPlanned(t, &st, syms, k, v)
	return status, status == insDone, roomHash, path
}

// insertPlanned plans and applies the insertion of k at the end of descent
// st. A plan that does not commit releases the record slot it took.
func (tr *Trie) insertPlanned(t *table, st *searchState, syms, k []byte, v uint64) (status int, roomHash uint64) {
	p := newPlan(t)
	defer p.recycle()
	ok := tr.planInsert(p, st, syms, k, v)
	switch {
	case p.colorsFull:
		status = insFull
	case p.needRoom:
		status, roomHash = insNeedRoom, p.needRoomHash
	case ok && p.apply(tr):
		tr.count.Add(1)
		return insDone, 0
	default:
		status = insRetry
	}
	p.releaseRecord(tr.recs)
	return status, roomHash
}

// planInsert plans the insertion of k at the end of descent st. The plan
// validates the whole descent path, not only the nodes it writes: what an
// ancestor held when it was read (its child bitmap, say) decides the
// predecessor the new leaf is linked after.
func (tr *Trie) planInsert(p *plan, st *searchState, syms, k []byte, v uint64) bool {
	p.check(st.path)
	switch st.outcome {
	case soMissing:
		return tr.planSimpleLeaf(p, st.path, syms, st.idx, k, v)
	case soLeaf:
		return tr.planLeafSplit(p, st.path, syms, k, v)
	}
	return tr.planJumpSplit(p, st.path, syms, st.idx, st.jumpOff, k, v)
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
		leaf.takeNext(&pred.pathNode)
		pm := p.modify(&pred.pathNode)
		pm.hasNext = true
		pm.setLoc(lloc)
	} else {
		// New global minimum. Register bucket 0 first (serializes min
		// updates), then read the current min.
		if _, ok := p.snapshot(0); !ok {
			return false
		}
		if oldMin, valid := unpackMinLoc(tr.minLoc.Load()); valid {
			leaf.hasNext = true
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
			m.hasLoc = true
			m.setLoc(lloc)
		case matchValid && rawLoc(n.w0, n.w2) == matchLoc:
			p.modify(n).setLoc(lloc)
		}
	}
	return true
}

// planSimpleLeaf handles soMissing: a new leaf under regular node
// path[last] for symbol syms[idx].
func (tr *Trie) planSimpleLeaf(p *plan, path []pathNode, syms []byte, idx int, k []byte, v uint64) bool {
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

	p.allocRecord(tr.recs, k, v)
	li, lloc := p.place(hLeaf, p.newLeaf(s, rawColor(term.w0)))
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
func (tr *Trie) planLeafSplit(p *plan, path []pathNode, syms []byte, k []byte, v uint64) bool {
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
		rm.kind = kindInternal
		rm.recIdx = 0
		rm.hasNext = false
		rm.w1 = 0
		rm.w1 = bitmapSet(rm.w1, sNew)
		rm.w1 = bitmapSet(rm.w1, sOld)
		rm.jumpLen = 0
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
	p.allocRecord(tr.recs, k, v)
	liNew, locNew := p.place(hNew, p.newLeaf(sNew, rColor))
	liOld, locOld := p.place(hOldLeaf, entry{
		kind: kindLeaf, lastSym: sOld, parentColor: rColor,
		jumpLen: uint8(rawKeyCode(L.w0)), recIdx: rawRecIdx(L.w0), w1: L.w1,
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
		if w := &p.writes[i].ent; w.kind != kindLeaf {
			w.hasLoc = true
			w.setLoc(bigLoc)
		}
	}
	lm := p.modify(L)
	lm.hasLoc = true
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
		oldLeaf.hasNext = true
		oldLeaf.setLoc(locNew)
		newLeaf.takeNext(L)
		firstLoc = locOld
	} else { // k < oldKey: prev → new → old → L.next
		newLeaf.hasNext = true
		newLeaf.setLoc(locOld)
		oldLeaf.takeNext(L)
		firstLoc = locNew
	}
	if prevFound {
		pm := p.modify(&prev.pathNode)
		pm.hasNext = true
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
			m.hasLoc = true
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
	var rBitmap uint64
	rBitmap = bitmapSet(rBitmap, sNew)
	rBitmap = bitmapSet(rBitmap, sOld)
	rIdx, rLoc := p.place(hD, entry{
		kind:         kindInternal,
		lastSym:      syms[d-1],
		parentIsJump: true,
		w1:           rBitmap,
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
		idx, loc := p.place(hStart, entry{
			kind:         kindJump,
			lastSym:      syms[start-1],
			parentIsJump: true,
			jumpLen:      uint8(end - start),
			w1:           packJumpSymbols(syms[start:end]),
			childColor:   childColor,
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
	hm.kind = kindJump
	hm.recIdx = 0
	hm.hasNext = false
	hm.hasLoc = false
	hm.jumpLen = uint8(headEnd - j)
	hm.w1 = packJumpSymbols(syms[j:headEnd])
	hm.childColor = childColor
	return rLoc.color, true
}

// planJumpSplit handles soJumpMismatch: jump node J (depth j, jumpLen m)
// diverges from the key at offset off (global symbol index idx).
func (tr *Trie) planJumpSplit(p *plan, path []pathNode, syms []byte, idx, off int, k []byte, v uint64) bool {
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
	var rBitmap uint64
	rBitmap = bitmapSet(rBitmap, sOld)
	rBitmap = bitmapSet(rBitmap, sNew)
	var rIdx = -1
	var rColor uint8
	if off == 0 {
		rm := p.modify(J)
		rm.kind = kindInternal
		rm.jumpLen = 0
		rm.childColor = 0
		rm.w1 = rBitmap
		rColor = rawColor(J.w0)
	} else {
		var rLoc locator
		rIdx, rLoc = p.place(hR, entry{
			kind:         kindInternal,
			lastSym:      syms[idx-1],
			parentIsJump: true,
			w1:           rBitmap,
		})
		if rIdx < 0 {
			return false
		}
		rColor = rLoc.color
		jm := p.modify(J)
		jm.jumpLen = uint8(off)
		jm.w1 = jumpSymbolRange(J.w1, 0, off)
		jm.childColor = rColor
	}

	// Old branch below R.
	if off+1 < m {
		si, _ := p.place(hOld, entry{
			kind:        kindJump,
			lastSym:     sOld,
			parentColor: rColor,
			jumpLen:     uint8(m - off - 1),
			w1:          jumpSymbolRange(J.w1, off+1, m),
			childColor:  rawChildColor(J.w0),
			hasLoc:      oldHasLoc,
			locHash:     oldMaxLoc.hash,
			locColor:    oldMaxLoc.color,
		})
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
		om := p.modify(&oc)
		om.parentColor = rColor
		om.parentIsJump = false
	}

	// New leaf.
	p.allocRecord(tr.recs, k, v)
	li, lloc := p.place(hNew, p.newLeaf(sNew, rColor))
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
		r.hasLoc = true
		r.setLoc(bigLoc)
	}
	jm := p.modify(J) // returns the mod registered above
	jm.hasLoc = true
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

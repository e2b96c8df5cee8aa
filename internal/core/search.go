package core

import (
	"bytes"

	"repro/internal/keys"
)

// Search outcomes.
const (
	soLeaf         = iota // descent reached a leaf
	soMissing             // a regular node lacks the child bit for the next symbol
	soJumpMismatch        // a jump node's compressed symbol differs from the key's
	soRestart             // concurrent conflict; restart with a fresh table pointer
)

// pathNode is one node on the root-to-terminal descent path.
type pathNode struct {
	ent   entry
	ref   entryRef
	depth int    // name length in symbols
	hash  uint64 // H(name)
}

func (p *pathNode) loc() locator { return locator{p.hash, p.ent.color} }

// searchState is the result of a path-recording descent.
type searchState struct {
	path    []pathNode
	outcome int
	idx     int // symbol index where the descent stopped (soMissing/soJumpMismatch)
	jumpOff int // offset within the terminal jump node (soJumpMismatch)
}

func (st *searchState) terminal() *pathNode { return &st.path[len(st.path)-1] }

// Raw word-0 matching masks: candidate filtering happens on a single atomic
// load per slot. probe adds the tag and primary bits to a match value; field
// positions are defined in entry.go.
const (
	matchMaskByParent = uint64(0xf)<<2 | primaryBit | uint64(0x3f)<<7 | uint64(7)<<16 | 1<<32
	matchMaskByColor  = uint64(0xf)<<2 | primaryBit | uint64(0x3f)<<7 | uint64(7)<<13
	matchMaskByLoc    = uint64(0xf)<<2 | primaryBit | uint64(7)<<13
)

func matchByParent(lastSym byte, parentColor uint8) uint64 {
	return uint64(lastSym&0x3f)<<7 | uint64(parentColor&7)<<16
}

func matchByColor(lastSym byte, color uint8) uint64 {
	return uint64(lastSym&0x3f)<<7 | uint64(color&7)<<13
}

// probe finds the live entry of hash h whose word 0 matches want (tag and
// primary bit excluded) under mask: first in h's primary bucket, then in its
// secondary. found is false when neither bucket yielded it, whether it is
// absent or was unreadable; callers retry or re-validate.
func (t *table) probe(h, want, mask uint64) (w0, w1, w2, b uint64, slot int, ver uint64, found bool) {
	b1, b2, tag := t.bucketsOf(h)
	want |= uint64(tag) << 2
	if w0, w1, w2, slot, ver := t.scanBucket(b1, want|primaryBit, mask); slot >= 0 {
		return w0, w1, w2, b1, slot, ver, true
	}
	if w0, w1, w2, slot, ver := t.scanBucket(b2, want, mask); slot >= 0 {
		return w0, w1, w2, b2, slot, ver, true
	}
	return 0, 0, 0, 0, -1, 0, false
}

// decodeFound turns a raw lookup result into an entry and its reference, for
// the callers that keep one.
func decodeFound(w0, w1, w2, b uint64, slot int, ver uint64, ok bool) (entry, entryRef, bool) {
	if !ok {
		return entry{}, entryRef{}, false
	}
	return decodeEntry(w0, w1, w2), entryRef{slotRef{b, slot}, ver}, true
}

// probeChild is the one child search: it finds the entry of hash h matching
// want under mask as the child of the parent read from bucket pb at version
// pver, re-checking that version after every probe, so a match is returned
// only while the parent is unchanged. ok=false means concurrent conflict
// (restart).
func (t *table) probeChild(h, want, mask, pb, pver uint64) (w0, w1, w2, b uint64, slot int, ver uint64, ok bool) {
	for spin := 0; spin < 4096; spin++ {
		w0, w1, w2, b, slot, ver, found := t.probe(h, want, mask)
		if t.loadVersion(pb) != pver {
			break
		}
		if found {
			return w0, w1, w2, b, slot, ver, true
		}
	}
	return 0, 0, 0, 0, -1, 0, false
}

// childOf finds the child for symbol s, of hash h, of the node with word 0
// pw0 read from bucket pb at version pver. The parent's kind picks the
// match. A regular parent's child is the paper's SearchByParent: the entry
// with (tag, s, parentColor = the parent's color) — regular, jump, or leaf.
// Entries whose parent is a jump node carry no meaningful parentColor and are
// skipped (parentIsJump is in the mask), which makes the verification exact:
// among same-hash entries only the true child of the verified parent can
// match, because a trie node has at most one child per symbol (§4.2). A jump
// parent's child is identified by its own color, stored in the jump node,
// because a jump node's hash cannot be peeled from its child's (§4.3);
// colors are unique among live entries with the same hash, so that match is
// exact too.
func (t *table) childOf(pw0, pb, pver, h uint64, s byte) (w0, w1, w2, b uint64, slot int, ver uint64, ok bool) {
	if rawKind(pw0) == kindJump {
		return t.probeChild(h, matchByColor(s, rawChildColor(pw0)), matchMaskByColor, pb, pver)
	}
	return t.probeChild(h, matchByParent(s, rawColor(pw0)), matchMaskByParent, pb, pver)
}

// findChild is childOf for writers, which keep decoded path nodes.
func (t *table) findChild(cur *pathNode, h uint64, s byte) (entry, entryRef, bool) {
	pw0, _, _ := cur.ent.encode()
	return decodeFound(t.childOf(pw0, cur.ref.bucket, cur.ref.ver, h, s))
}

// childByColor finds the child of the jump node read under parent by the
// child's color.
func (t *table) childByColor(h uint64, lastSym byte, color uint8, parent entryRef) (entry, entryRef, bool) {
	return decodeFound(t.probeChild(h, matchByColor(lastSym, color), matchMaskByColor, parent.bucket, parent.ver))
}

// searchChildOfRegular finds the child of the regular node read under parent
// by the parent's color.
func (t *table) searchChildOfRegular(h uint64, lastSym byte, parent entryRef, parentColor uint8) (entry, entryRef, bool) {
	return decodeFound(t.probeChild(h, matchByParent(lastSym, parentColor), matchMaskByParent, parent.bucket, parent.ver))
}

// Outcomes of matchNode.
const (
	nodeProbe = iota // fetch the child for the returned symbol index
	nodeMiss         // the key is absent
	nodeTorn         // the node is not internal/jump, or syms ran out: a torn read
)

// matchNode matches the key's symbols against the node with raw words
// (w0, w1) whose name is the first depth symbols: an internal node consumes
// one symbol against its child bitmap; a jump node compares its compressed
// symbols in-entry, without memory accesses. It returns the index of the
// symbol whose child is fetched next. The terminator symbol cannot have
// children, so running out of symbols means a torn read.
func matchNode(w0, w1 uint64, depth int, syms []byte) (at, outcome int) {
	switch rawKind(w0) {
	case kindInternal:
		if depth >= len(syms) {
			return 0, nodeTorn
		}
		if !bitmapHas(w1, syms[depth]) {
			return 0, nodeMiss
		}
		return depth, nodeProbe
	case kindJump:
		n := rawJumpLen(w0)
		for i := depth; ; i++ {
			if i >= len(syms) {
				return 0, nodeTorn
			}
			if rawJumpSymbol(w1, i-depth) != syms[i] {
				return 0, nodeMiss
			}
			if i+1-depth >= n {
				return i, nodeProbe
			}
		}
	}
	return 0, nodeTorn
}

// searchPath descends the trie for the symbol sequence syms, recording every
// node visited. This is Algorithm 1 with path recording for writers.
func (tr *Trie) searchPath(t *table, syms []byte, path []pathNode) ([]pathNode, searchState) {
	root, rootRef, ok := tr.tryFindRoot(t)
	if !ok {
		return path, searchState{outcome: soRestart}
	}
	path = path[:0]
	path = append(path, pathNode{ent: root, ref: rootRef, depth: 0, hash: 0})
	cur := &path[0]
	h := uint64(0)
	for i := 0; i < len(syms); {
		s := syms[i]
		h = t.step(h, s)
		switch cur.ent.kind {
		case kindInternal:
			if !bitmapHas(cur.ent.w1, s) {
				return path, searchState{path: path, outcome: soMissing, idx: i}
			}
		case kindJump:
			off := i - cur.depth
			if cur.ent.jumpSymbol(off) != s {
				return path, searchState{path: path, outcome: soJumpMismatch, idx: i, jumpOff: off}
			}
			if off+1 < int(cur.ent.jumpLen) {
				i++
				continue
			}
		default:
			// Reached a node that is no longer internal/jump: concurrent
			// modification slipped past a version check window; restart.
			return path, searchState{outcome: soRestart}
		}
		child, ref, ok := t.findChild(cur, h, s)
		if !ok {
			return path, searchState{outcome: soRestart}
		}
		path = append(path, pathNode{ent: child, ref: ref, depth: i + 1, hash: h})
		cur = &path[len(path)-1]
		i++
		if child.kind == kindLeaf {
			return path, searchState{path: path, outcome: soLeaf, idx: i}
		}
	}
	// The terminator symbol cannot have children, so a complete consumption
	// of syms without reaching a leaf indicates a torn read; restart.
	return path, searchState{outcome: soRestart}
}

// rootNode locates the root's raw words with bounded retries.
func (tr *Trie) rootNode(t *table) (w0, w1, w2, b uint64, slot int, ver uint64, ok bool) {
	for spin := 0; spin < 4096; spin++ {
		if w0, w1, w2, b, slot, ver, ok := t.locate(locator{0, uint8(tr.rootColor.Load())}); ok {
			return w0, w1, w2, b, slot, ver, true
		}
	}
	return 0, 0, 0, 0, -1, 0, false
}

// tryFindRoot is rootNode for callers that keep the root's entry.
func (tr *Trie) tryFindRoot(t *table) (entry, entryRef, bool) {
	return decodeFound(tr.rootNode(t))
}

// Get looks up key k and returns its value. This is the paper's lookup: a
// trie search (not a plain hash lookup, because the trie stores unique
// prefixes) followed by a comparison against the full key stored in the
// record (§4.4).
func (tr *Trie) Get(k []byte) (uint64, bool) {
	if len(k) > MaxKeyLen {
		return 0, false
	}
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	for {
		t := tr.tbl.Load()
		v, found, ok := tr.getOnce(t, syms, k)
		if ok {
			return v, found
		}
	}
}

// getOnce performs one lookup attempt, carrying each level's node as raw
// words. ok=false requests a restart.
func (tr *Trie) getOnce(t *table, syms []byte, k []byte) (val uint64, found, ok bool) {
	w0, w1, _, b, _, ver, ok := tr.rootNode(t)
	if !ok {
		return 0, false, false
	}
	h := uint64(0)
	for depth := 0; ; {
		at, m := matchNode(w0, w1, depth, syms)
		if m != nodeProbe {
			return 0, false, m == nodeMiss
		}
		for ; depth <= at; depth++ {
			h = t.step(h, syms[depth])
		}
		w0, w1, _, b, _, ver, ok = t.childOf(w0, b, ver, h, syms[at])
		if !ok {
			return 0, false, false
		}
		if rawKind(w0) == kindLeaf {
			if rawDirty(w0) {
				return 0, false, false
			}
			return tr.leafValue(t, w0, b, ver, k)
		}
	}
}

// leafValue is a lookup's last step: compare the record's key with k, read
// its value, then re-validate the leaf (word 0 w0, read from bucket b at
// version ver) — if it was deleted meanwhile, its record slot may have been
// reused and both reads are stale. ok=false requests a restart.
func (tr *Trie) leafValue(t *table, w0, b, ver uint64, k []byte) (val uint64, found, ok bool) {
	idx := rawRecIdx(w0)
	match := bytes.Equal(tr.recs.key(idx), k)
	val = tr.recs.value(idx)
	if t.loadVersion(b) != ver {
		return 0, false, false
	}
	if !match {
		return 0, false, true
	}
	return val, true, true
}

// Contains reports whether k is present.
func (tr *Trie) Contains(k []byte) bool {
	_, ok := tr.Get(k)
	return ok
}

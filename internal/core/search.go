package core

import "repro/internal/keys"

// Search outcomes.
const (
	soLeaf         = iota // descent reached a leaf
	soMissing             // a regular node lacks the child bit for the next symbol
	soJumpMismatch        // a jump node's compressed symbol differs from the key's
	soRestart             // concurrent conflict; restart with a fresh table pointer
)

// pathNode is one trie node as a descent read it: its words, the slot and
// bucket version they were read under, and its name's length and hash.
// Reads branch on the words in place; a writer's plan edits a copy of them.
type pathNode struct {
	node
	ref   entryRef
	depth int    // name length in symbols (set on descent paths only)
	hash  uint64 // H(name)
}

// asNode carries a probe's raw result as a node; the caller fills in depth
// and hash.
func asNode(w0, w1, w2, b uint64, slot int, ver uint64, ok bool) (pathNode, bool) {
	return pathNode{node: node{w0, w1, w2}, ref: entryRef{slotRef{b, slot}, ver}}, ok
}

func (n *pathNode) loc() locator { return locator{n.hash, rawColor(n.w0)} }

// unchanged reports whether every node of path still has the bucket version
// it was read under.
func (t *table) unchanged(path []pathNode) bool {
	for i := range path {
		if t.loadVersion(path[i].ref.bucket) != path[i].ref.ver {
			return false
		}
	}
	return true
}

// searchState is the result of a path-recording descent.
type searchState struct {
	path    []pathNode
	outcome int
	idx     int // symbol index where the descent stopped; for soLeaf, the leaf's depth
	jumpOff int // offset within the terminal jump node (soJumpMismatch)
}

func (st *searchState) terminal() *pathNode { return &st.path[len(st.path)-1] }

// probe finds the live entry of hash h whose word 0 matches want (tag and
// primary bit excluded) under mask (entry.go): first in h's primary bucket, then in its
// secondary. Each bucket's cold line is hinted before its head is read, so
// the two misses overlap. found is false when neither bucket yielded it,
// whether it is absent or was unreadable; callers retry or re-validate.
func (t *table) probe(h, want, mask uint64) (w0, w1, w2, b uint64, slot int, ver uint64, found bool) {
	b1, b2, tag := t.bucketsOf(h)
	t.prefetchCold(b1)
	if w0, w1, w2, slot, ver := t.scanBucket(b1, want|tagBits(tag, true), mask); slot >= 0 {
		return w0, w1, w2, b1, slot, ver, true
	}
	t.prefetchCold(b2)
	if w0, w1, w2, slot, ver := t.scanBucket(b2, want|tagBits(tag, false), mask); slot >= 0 {
		return w0, w1, w2, b2, slot, ver, true
	}
	return 0, 0, 0, 0, -1, 0, false
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
	want, mask := childMatch(pw0, s)
	return t.probeChild(h, want, mask, pb, pver)
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
// node visited: getOnce's descent (Algorithm 1) with path recording, for
// writers and ordered reads.
func (tr *Trie) searchPath(t *table, syms []byte, path []pathNode) ([]pathNode, searchState) {
	root, ok := asNode(tr.rootNode(t))
	if !ok {
		return path, searchState{outcome: soRestart}
	}
	path = append(path[:0], root)
	for {
		cur := &path[len(path)-1]
		at, m := matchNode(cur.w0, cur.w1, cur.depth, syms)
		switch m {
		case nodeTorn:
			return path, searchState{outcome: soRestart}
		case nodeMiss:
			st := searchState{path: path, outcome: soMissing, idx: cur.depth}
			if rawKind(cur.w0) == kindJump {
				st.outcome = soJumpMismatch
				for rawJumpSymbol(cur.w1, st.jumpOff) == syms[st.idx] {
					st.idx++
					st.jumpOff++
				}
			}
			return path, st
		}
		h := cur.hash
		for d := cur.depth; d <= at; d++ {
			h = t.step(h, syms[d])
		}
		child, ok := asNode(t.childOf(cur.w0, cur.ref.bucket, cur.ref.ver, h, syms[at]))
		if !ok {
			return path, searchState{outcome: soRestart}
		}
		child.depth, child.hash = at+1, h
		path = append(path, child)
		if rawKind(child.w0) == kindLeaf {
			return path, searchState{path: path, outcome: soLeaf, idx: at + 1}
		}
	}
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

// Get looks up key k and returns its value. This is the paper's lookup: a
// trie search (not a plain hash lookup, because the trie stores unique
// prefixes) followed by a comparison against the full key stored in the
// record (§4.4). The leaf holds the key itself, inline or as a reference to
// its bytes, so a hit ends with one dependent access, as the paper's does.
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
		var w2 uint64
		w0, w1, w2, b, _, ver, ok = t.childOf(w0, b, ver, h, syms[at])
		if !ok {
			return 0, false, false
		}
		if rawKind(w0) == kindLeaf {
			return tr.leafValue(t, w0, w1, w2, b, ver, k)
		}
	}
}

// leafValue is a lookup's last step at the leaf with words w0, w1, w2, read
// from bucket b at version ver: compare the leaf's key with k, and on a
// match read the value, then re-validate the leaf — if it was deleted
// meanwhile, its record slot may have been reused and the value is stale.
// The key word was read under the seqlock with w0, so a mismatch is final,
// like a missing child bit. ok=false requests a restart.
func (tr *Trie) leafValue(t *table, w0, w1, w2, b, ver uint64, k []byte) (val uint64, found, ok bool) {
	if !tr.recs.leafKeyIs(w0, w1, k) {
		return 0, false, true
	}
	val = tr.recs.value(rawRecIdx(w2))
	if t.loadVersion(b) != ver {
		return 0, false, false
	}
	return val, true, true
}

// Contains reports whether k is present.
func (tr *Trie) Contains(k []byte) bool {
	_, ok := tr.Get(k)
	return ok
}

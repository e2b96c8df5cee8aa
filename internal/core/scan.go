package core

import (
	"bytes"

	"repro/internal/keys"
)

// Range iteration (§4.4): the range start is located with a predecessor
// search (ascend the trie, follow a subtree-max locator), then iteration
// follows the sorted leaf linked list. Locators — not addresses — link the
// leaves, so iteration survives cuckoo relocations; a version re-check on the
// current leaf detects concurrent structural changes, after which the
// iterator resynchronizes with a fresh search from the root (§5).

// seekLeaf finds the leaf with the smallest key ≥ k, or with after=false
// the largest key ≤ k. found=false means no such key; ok=false asks the
// caller to retry on a fresh table pointer.
func (tr *Trie) seekLeaf(t *table, k, syms []byte, after bool) (leaf pathNode, found, ok bool) {
	var pbuf [32]pathNode
	_, st := tr.searchPath(t, syms, pbuf[:0])
	if st.outcome == soRestart {
		return pathNode{}, false, false
	}
	return tr.seekOnPath(t, &st, k, syms, after)
}

// seekOnPath is the floor search both directions share, on the recorded
// descent st for k. The leaf the descent reached is the answer when its key
// equals k, or exceeds it and after is set. Otherwise the floor — the
// largest leaf below k — is found from the path (§4.4): it is the answer
// when !after, and its next leaf (the minimum when there is no floor) is
// the answer when after. Every path node is re-validated after the answer's
// last read: an ancestor that gained a child since the descent read it may
// hide a leaf between the floor and k.
func (tr *Trie) seekOnPath(t *table, st *searchState, k, syms []byte, after bool) (leaf pathNode, found, ok bool) {
	path, term := st.path, st.terminal()
	var floor predLeaf
	switch st.outcome {
	case soLeaf:
		var kbuf [inlineKeyMax]byte
		c := bytes.Compare(tr.recs.leafKey(term.w0, term.w1, &kbuf), k)
		if c == 0 || c > 0 && after {
			return *term, true, t.unchanged(path)
		}
		if c < 0 {
			floor, found, ok = predLeaf{*term, term.ref}, true, true
		} else {
			floor, found, ok = t.predViaAncestors(path[:len(path)-1], syms)
		}
	case soMissing:
		floor, found, ok = t.predViaAncestors(path, syms)
	case soJumpMismatch:
		if syms[st.idx] > rawJumpSymbol(term.w1, st.jumpOff) {
			floor, ok = t.maxLeafOf(term)
			found = ok
		} else {
			floor, found, ok = t.predViaAncestors(path[:len(path)-1], syms)
		}
	}
	leaf = floor.pathNode
	switch {
	case !ok || !after:
	case !found:
		leaf, found, ok = tr.minLeaf(t)
	case rawHasNext(floor.w0):
		leaf, ok = t.followLocator(rawLoc(floor.w0, floor.w2), floor.ref)
	default:
		found = false
	}
	return leaf, found, ok && t.unchanged(path)
}

// minLeaf resolves the trie minimum's locator to its leaf. found=false means
// the trie is empty; ok=false asks for a retry: the resolution failed, or
// the minimum moved meanwhile, so the resolved entry may be unrelated.
func (tr *Trie) minLeaf(t *table) (leaf pathNode, found, ok bool) {
	packed := tr.minLoc.Load()
	l, valid := unpackMinLoc(packed)
	if !valid {
		return pathNode{}, false, true
	}
	leaf, ok = asNode(t.locate(l))
	leaf.hash = l.hash
	ok = ok && rawKind(leaf.w0) == kindLeaf && tr.minLoc.Load() == packed
	return leaf, ok, ok
}

// leafRecord appends leaf n's key to dst and reads its value, then
// re-validates the leaf: one deleted mid-read may have had its record slot
// reused, and ok is false.
func (tr *Trie) leafRecord(t *table, n *pathNode, dst []byte) (key []byte, val uint64, ok bool) {
	var kbuf [inlineKeyMax]byte
	key = append(dst, tr.recs.leafKey(n.w0, n.w1, &kbuf)...)
	val = tr.recs.value(rawRecIdx(n.w0))
	return key, val, t.loadVersion(n.ref.bucket) == n.ref.ver
}

// Iterator walks keys in ascending order.
type Iterator struct {
	tr      *Trie
	t       *table
	pos     pathNode // the current leaf
	key     []byte
	scratch []byte
	val     uint64
	valid   bool
}

// Seek returns an iterator positioned at the smallest key ≥ start. With a
// nil start it is positioned at the minimum key.
func (tr *Trie) Seek(start []byte) (*Iterator, error) {
	if tr.cfg.DisableLeafList {
		return nil, ErrScansDisabled
	}
	it := &Iterator{tr: tr}
	it.seek(start)
	return it, nil
}

func (it *Iterator) seek(start []byte) {
	tr := it.tr
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], start)
	for {
		it.t = tr.tbl.Load()
		pos, found, ok := tr.seekLeaf(it.t, start, syms, true)
		if !ok {
			continue
		}
		if !found {
			it.valid = false
			return
		}
		if it.loadPos(pos) {
			return
		}
	}
}

// loadPos copies pos's record into the iterator and commits it only after
// re-validating the leaf's bucket version: the record read may be stale if
// the leaf was deleted mid-copy. On failure the iterator's previous state is
// preserved so callers can resynchronize from the last valid key.
func (it *Iterator) loadPos(pos pathNode) bool {
	var ok bool
	it.scratch, it.val, ok = it.tr.leafRecord(it.t, &pos, it.scratch[:0])
	if !ok {
		return false
	}
	it.key = append(it.key[:0], it.scratch...)
	it.pos = pos
	it.valid = true
	return true
}

// NewCursor returns an unpositioned iterator for cursor-style use: position
// it with Seek, then walk with Next. With the leaf list disabled the cursor
// is never valid, matching Scan's behavior.
func (tr *Trie) NewCursor() *Iterator { return &Iterator{tr: tr} }

// Seek repositions the iterator at the smallest key ≥ start (the minimum key
// when start is nil) and reports whether such a key exists. It implements
// the index.Cursor interface.
func (it *Iterator) Seek(start []byte) bool {
	if it.tr.cfg.DisableLeafList {
		it.valid = false
		return false
	}
	it.seek(start)
	return it.valid
}

// Close invalidates the iterator and releases its buffers (index.Cursor).
func (it *Iterator) Close() {
	it.valid = false
	it.key = nil
	it.scratch = nil
	it.t = nil
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current key. The slice is owned by the iterator and is
// overwritten by Next.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() uint64 { return it.val }

// Next advances to the next key in order. It returns false at the end.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	if !rawHasNext(it.pos.w0) {
		it.valid = false
		return false
	}
	next, ok := it.t.followLocator(rawLoc(it.pos.w0, it.pos.w2), it.pos.ref)
	if !ok || !it.loadPos(next) {
		// The current leaf changed under us (or the table was resized):
		// resynchronize by searching for the first key > the last valid one.
		cur := append([]byte(nil), it.key...)
		it.seekGreater(cur)
	}
	return it.valid
}

// seekGreater positions the iterator at the smallest key strictly greater
// than k.
func (it *Iterator) seekGreater(k []byte) {
	it.seek(k)
	if it.valid && bytes.Equal(it.key, k) {
		if !it.Next() {
			it.valid = false
		}
	}
}

// Min returns the smallest key and its value.
func (tr *Trie) Min() (key []byte, val uint64, ok bool) {
	if tr.cfg.DisableLeafList {
		return nil, 0, false
	}
	for {
		t := tr.tbl.Load()
		leaf, found, ok := tr.minLeaf(t)
		if ok && !found {
			return nil, 0, false
		}
		if ok {
			if key, val, ok = tr.leafRecord(t, &leaf, nil); ok {
				return key, val, true
			}
		}
	}
}

// Max returns the largest key and its value.
func (tr *Trie) Max() (key []byte, val uint64, ok bool) {
	if tr.cfg.DisableLeafList {
		return nil, 0, false
	}
	for {
		t := tr.tbl.Load()
		root, ok := asNode(tr.rootNode(t))
		if !ok {
			continue
		}
		if !rawHasLoc(root.w0) {
			return nil, 0, false
		}
		leaf, ok := t.followLocator(rawLoc(root.w0, root.w2), root.ref)
		if !ok {
			continue
		}
		if key, val, ok = tr.leafRecord(t, &leaf, nil); ok {
			return key, val, true
		}
	}
}

// Successor returns the smallest key ≥ k (inclusive successor).
func (tr *Trie) Successor(k []byte) (key []byte, val uint64, ok bool) {
	it, err := tr.Seek(k)
	if err != nil || !it.Valid() {
		return nil, 0, false
	}
	return append([]byte(nil), it.Key()...), it.Value(), true
}

// Predecessor returns the largest key ≤ k.
func (tr *Trie) Predecessor(k []byte) (key []byte, val uint64, ok bool) {
	if tr.cfg.DisableLeafList {
		return nil, 0, false
	}
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	for {
		t := tr.tbl.Load()
		leaf, found, ok := tr.seekLeaf(t, k, syms, false)
		if ok && !found {
			return nil, 0, false
		}
		if ok {
			if key, val, ok = tr.leafRecord(t, &leaf, nil); ok {
				return key, val, true
			}
		}
	}
}

// Scan calls fn for up to n keys in ascending order starting at the smallest
// key ≥ start, stopping early if fn returns false. It returns the number of
// keys visited.
func (tr *Trie) Scan(start []byte, n int, fn func(key []byte, val uint64) bool) (int, error) {
	it, err := tr.Seek(start)
	if err != nil {
		return 0, err
	}
	visited := 0
	for it.Valid() && visited < n {
		visited++
		if !fn(it.Key(), it.Value()) {
			break
		}
		if !it.Next() {
			break
		}
	}
	return visited, nil
}

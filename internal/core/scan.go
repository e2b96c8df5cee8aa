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

// leafPos is a resolved position on the leaf list.
type leafPos struct {
	ent  entry
	ref  entryRef
	hash uint64
}

// seekLeaf finds the leaf with the smallest key ≥ k. found=false means no
// such key; ok=false asks the caller to retry on a fresh table pointer.
func (tr *Trie) seekLeaf(t *table, k []byte, syms []byte) (leafPos, bool, bool) {
	if tr.count.Load() == 0 {
		return leafPos{}, false, true
	}
	var pbuf [32]pathNode
	path, st := tr.searchPath(t, syms, pbuf[:0])
	if st.outcome == soRestart {
		return leafPos{}, false, false
	}
	term := st.terminal()

	var pred predLeaf
	var predFound bool
	switch st.outcome {
	case soLeaf:
		rec := tr.recs.key(term.ent.recIdx)
		ge := bytes.Compare(rec, k) >= 0
		if t.loadVersion(term.ref.bucket) != term.ref.ver {
			return leafPos{}, false, false // stale record read
		}
		if ge {
			// The lone key sharing our prefix is ≥ k: it is the successor.
			return leafPos{term.ent, term.ref, term.hash}, true, true
		}
		pred, predFound = predLeaf{term.ent, term.ref, term.hash}, true
	case soMissing:
		var vset []entryRef
		var ok bool
		pred, predFound, ok = t.predViaAncestors(path, syms, &vset)
		if !ok {
			return leafPos{}, false, false
		}
	case soJumpMismatch:
		sOld := term.ent.jumpSymbol(st.jumpOff)
		sNew := syms[st.idx]
		if sNew > sOld {
			var ok bool
			pred, ok = t.maxLeafOf(term)
			if !ok {
				return leafPos{}, false, false
			}
			predFound = true
		} else {
			var vset []entryRef
			var ok bool
			pred, predFound, ok = t.predViaAncestors(path[:len(path)-1], syms, &vset)
			if !ok {
				return leafPos{}, false, false
			}
		}
	}

	if !predFound {
		// k is below the minimum: start at the minimum leaf.
		packed := tr.minLoc.Load()
		minLoc, valid := unpackMinLoc(packed)
		if !valid {
			return leafPos{}, false, true
		}
		e, ref, ok := t.findByLocator(minLoc)
		// Guard against locator reuse: the minimum changing implies the
		// resolved entry may be unrelated.
		if tr.minLoc.Load() != packed {
			return leafPos{}, false, false
		}
		if !ok || e.kind != kindLeaf {
			return leafPos{}, false, false
		}
		return leafPos{e, ref, minLoc.hash}, true, true
	}
	if !pred.ent.hasNext {
		return leafPos{}, false, true
	}
	nl := pred.ent.nextLeafLoc()
	e, ref, ok := t.followLocator(nl, pred.ref)
	if !ok || e.kind != kindLeaf {
		return leafPos{}, false, false
	}
	return leafPos{e, ref, nl.hash}, true, true
}

// Iterator walks keys in ascending order.
type Iterator struct {
	tr      *Trie
	t       *table
	pos     leafPos
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
	for {
		t := tr.tbl.Load()
		it.t = t
		if start == nil {
			packed := tr.minLoc.Load()
			minLoc, valid := unpackMinLoc(packed)
			if !valid {
				it.valid = false
				return
			}
			e, ref, ok := t.findByLocator(minLoc)
			if tr.minLoc.Load() != packed {
				continue
			}
			if !ok || e.kind != kindLeaf {
				continue
			}
			if !it.loadPos(leafPos{e, ref, minLoc.hash}) {
				continue
			}
			return
		}
		syms := keys.AppendSymbols(sbuf[:0], start)
		pos, found, ok := tr.seekLeaf(t, start, syms)
		if !ok {
			continue
		}
		if !found {
			it.valid = false
			return
		}
		if !it.loadPos(pos) {
			continue
		}
		return
	}
}

// loadPos copies pos's record into the iterator and commits it only after
// re-validating the leaf's bucket version: the record read may be stale if
// the leaf was deleted mid-copy. On failure the iterator's previous state is
// preserved so callers can resynchronize from the last valid key.
func (it *Iterator) loadPos(pos leafPos) bool {
	key := it.tr.recs.key(pos.ent.recIdx)
	it.scratch = append(it.scratch[:0], key...)
	val := it.tr.recs.value(pos.ent.recIdx)
	if it.t.loadVersion(pos.ref.bucket) != pos.ref.ver {
		return false
	}
	it.key = append(it.key[:0], it.scratch...)
	it.val = val
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
	if !it.pos.ent.hasNext {
		it.valid = false
		return false
	}
	nl := it.pos.ent.nextLeafLoc()
	e, ref, ok := it.t.followLocator(nl, it.pos.ref)
	if !ok || e.kind != kindLeaf || !it.loadPos(leafPos{e, ref, nl.hash}) {
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
		packed := tr.minLoc.Load()
		minLoc, valid := unpackMinLoc(packed)
		if !valid {
			return nil, 0, false
		}
		e, ref, lok := t.findByLocator(minLoc)
		if !lok || e.kind != kindLeaf {
			continue
		}
		k := append([]byte(nil), tr.recs.key(e.recIdx)...)
		v := tr.recs.value(e.recIdx)
		// The locator and the leaf must both be unchanged: a minimum
		// deleted and re-inserted keeps its locator, but its old record
		// slot may now hold another key.
		if tr.minLoc.Load() != packed || t.loadVersion(ref.bucket) != ref.ver {
			continue
		}
		return k, v, true
	}
}

// Max returns the largest key and its value.
func (tr *Trie) Max() (key []byte, val uint64, ok bool) {
	if tr.cfg.DisableLeafList {
		return nil, 0, false
	}
	for {
		t := tr.tbl.Load()
		root, ref, rok := tr.tryFindRoot(t)
		if !rok {
			continue
		}
		if !root.hasLoc {
			return nil, 0, false
		}
		leaf, lref, lok := t.followLocator(root.maxLeafLoc(), ref)
		if !lok || leaf.kind != kindLeaf {
			continue
		}
		k := append([]byte(nil), tr.recs.key(leaf.recIdx)...)
		v := tr.recs.value(leaf.recIdx)
		// A leaf deleted mid-read may have had its record slot reused.
		if t.loadVersion(lref.bucket) != lref.ver {
			continue
		}
		return k, v, true
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
		if tr.count.Load() == 0 {
			return nil, 0, false
		}
		var pbuf [32]pathNode
		path, st := tr.searchPath(t, syms, pbuf[:0])
		if st.outcome == soRestart {
			continue
		}
		term := st.terminal()
		var pred predLeaf
		var found bool
		switch st.outcome {
		case soLeaf:
			rec := tr.recs.key(term.ent.recIdx)
			if bytes.Compare(rec, k) <= 0 {
				pred, found = predLeaf{term.ent, term.ref, term.hash}, true
			} else {
				var vset []entryRef
				var pok bool
				pred, found, pok = t.predViaAncestors(path[:len(path)-1], syms, &vset)
				if !pok {
					continue
				}
			}
		case soMissing:
			var vset []entryRef
			var pok bool
			pred, found, pok = t.predViaAncestors(path, syms, &vset)
			if !pok {
				continue
			}
		case soJumpMismatch:
			sOld := term.ent.jumpSymbol(st.jumpOff)
			if syms[st.idx] > sOld {
				var pok bool
				pred, pok = t.maxLeafOf(term)
				if !pok {
					continue
				}
				found = true
			} else {
				var vset []entryRef
				var pok bool
				pred, found, pok = t.predViaAncestors(path[:len(path)-1], syms, &vset)
				if !pok {
					continue
				}
			}
		}
		if !found {
			return nil, 0, false
		}
		key = append([]byte(nil), tr.recs.key(pred.ent.recIdx)...)
		val = tr.recs.value(pred.ent.recIdx)
		if t.loadVersion(pred.ref.bucket) != pred.ref.ver {
			continue
		}
		return key, val, true
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

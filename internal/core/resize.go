package core

import "errors"

// Resizing. The hash function's domain is [0, S·t), so every node's hash —
// and hence its buckets — changes with the table size. Leaves hold their
// keys, but internal and jump nodes store no names to rehash from. The trie
// is therefore rebuilt by a DFS that reconstructs node names
// symbol-by-symbol. The paper describes an
// incremental scheme ([33], §5); ours is stop-the-world: the old table's
// buckets are all CAS-locked (draining writers), the new table is built,
// and the trie's table pointer is swapped. Old-table locks are never
// released, so stragglers holding the stale pointer fail their next version
// check and reload. In-flight reads that complete on the old table observed
// a consistent pre-resize state, which is linearizable because a resize
// changes no logical content.
//
// Within the unpublished new table, entries are addressed by locator (hash,
// color), never by slot: evictions during the rebuild may relocate them.

var errResizeRace = errors.New("cuckootrie: concurrent resize")

func (tr *Trie) resize(old *table) error {
	tr.resizeMu.Lock()
	defer tr.resizeMu.Unlock()
	if tr.tbl.Load() != old {
		return nil // another goroutine already resized
	}
	if old.buckets*2 > maxBuckets {
		return ErrTableFull
	}

	// Quiesce: lock every bucket of the old table.
	locked := make([]uint64, old.buckets)
	for b := uint64(0); b < old.buckets; b++ {
		for {
			v := old.loadVersion(b)
			if v&1 == 0 && old.tryLock(b, v) {
				locked[b] = v
				break
			}
		}
	}

	// Hash collisions are a function of S (the hash depends only on the
	// geometry and the symbols), and colliding internal nodes propagate
	// collisions to equal-symbol descendants; if one doubling still has an
	// over-full color class, keep doubling — a different S reshuffles every
	// hash value.
	var b *rebuilder
	var err error
	for factor := uint64(2); factor <= 16 && old.buckets*factor <= maxBuckets; factor *= 2 {
		nt := newTable(old.buckets*factor, tableSeed+int64(old.buckets*factor))
		b = &rebuilder{src: old, dst: nt, tr: tr}
		if err = b.run(); err == nil {
			break
		}
	}
	if err != nil {
		for i := uint64(0); i < old.buckets; i++ {
			old.unlock(i, locked[i], false)
		}
		return err
	}
	tr.rootColor.Store(uint32(b.newRootColor))
	if b.minValid {
		tr.minLoc.Store(packMinLoc(b.minLoc))
	} else {
		tr.minLoc.Store(0)
	}
	tr.gen.Add(1)
	tr.tbl.Store(b.dst)
	// Old-table locks intentionally left held; the table is garbage.
	return nil
}

// maxSymbol is the largest symbol value (terminator 0 .. data 32).
const maxSymbol = 32

// rebuilder copies the trie from src to dst via DFS, assigning fresh hashes
// and colors, recomputing subtree-max locators bottom-up and re-chaining the
// leaf list left-to-right (DFS in ascending symbol order visits leaves in
// key order).
type rebuilder struct {
	src, dst *table
	tr       *Trie

	newRootColor uint8
	minLoc       locator
	minValid     bool

	prevLeaf struct {
		valid bool
		loc   locator
	}
}

func (b *rebuilder) run() error {
	rootOld, _, ok := b.src.lockedFind(locator{0, uint8(b.tr.rootColor.Load())})
	if !ok {
		return errResizeRace
	}
	color, err := b.insertEntry(0, rootOld)
	if err != nil {
		return err
	}
	b.newRootColor = color
	rootLoc := locator{0, color}
	maxLoc, hasMax, err := b.copyChildren(rootOld, 0, 0, rootLoc)
	if err != nil {
		return err
	}
	b.patchLoc(rootLoc, maxLoc, hasMax)
	return nil
}

// copyChildren copies the children of node old with old/new hashes oldHash/
// newHash and new-table locator newLoc. Returns the subtree-max locator.
func (b *rebuilder) copyChildren(old node, oldHash, newHash uint64, newLoc locator) (locator, bool, error) {
	switch rawKind(old.w0) {
	case kindLeaf:
		return locator{}, false, nil
	case kindJump:
		oh, nh := oldHash, newHash
		n := rawJumpLen(old.w0)
		for i := 0; i < n; i++ {
			s := rawJumpSymbol(old.w1, i)
			oh = b.src.step(oh, s)
			nh = b.dst.step(nh, s)
		}
		childOld, ok := b.src.lockedChild(old.w0, oh, rawJumpSymbol(old.w1, n-1))
		if !ok {
			return locator{}, false, errResizeRace
		}
		return b.copyNode(childOld, oh, nh, newLoc, true)
	case kindInternal:
		var maxLoc locator
		var hasMax bool
		for s := 0; s <= maxSymbol; s++ {
			if !bitmapHas(old.w1, byte(s)) {
				continue
			}
			oh := b.src.step(oldHash, byte(s))
			ch := b.dst.step(newHash, byte(s))
			childOld, ok := b.src.lockedChild(old.w0, oh, byte(s))
			if !ok {
				return locator{}, false, errResizeRace
			}
			ml, hm, err := b.copyNode(childOld, oh, ch, newLoc, false)
			if err != nil {
				return locator{}, false, err
			}
			if hm {
				maxLoc, hasMax = ml, true
			}
		}
		return maxLoc, hasMax, nil
	}
	return locator{}, false, errResizeRace
}

// copyNode copies one node and its subtree. parentLoc is the parent's
// new-table locator; parentIsJump selects the child-linking scheme.
func (b *rebuilder) copyNode(old node, oldHash, newHash uint64, parentLoc locator, parentIsJump bool) (locator, bool, error) {
	n := old
	n.setParent(parentLoc.color, parentIsJump)
	leaf := rawKind(old.w0) == kindLeaf
	if leaf {
		n.setFlag(hasNextBit, false) // patchNext links it
		n.setLoc(locator{})
	}
	color, err := b.insertEntry(newHash, n)
	if err != nil {
		return locator{}, false, err
	}
	myLoc := locator{newHash, color}
	if parentIsJump {
		b.patchChildColor(parentLoc, color)
	}
	if leaf {
		if b.prevLeaf.valid {
			b.patchNext(b.prevLeaf.loc, myLoc)
		} else {
			b.minLoc, b.minValid = myLoc, true
		}
		b.prevLeaf.valid = true
		b.prevLeaf.loc = myLoc
		return myLoc, true, nil
	}
	maxLoc, hasMax, err := b.copyChildren(old, oldHash, newHash, myLoc)
	if err != nil {
		return locator{}, false, err
	}
	b.patchLoc(myLoc, maxLoc, hasMax)
	return maxLoc, hasMax, nil
}

// insertEntry places node n into the new (unpublished, single-threaded)
// table, running evictions as needed. Returns the assigned color.
func (b *rebuilder) insertEntry(h uint64, n node) (uint8, error) {
	t := b.dst
	b1, b2, tag := t.bucketsOf(h)
	var w1s, w2s [entriesPerBucket]uint64
	t.loadHeads(b1, &w1s)
	t.loadHeads(b2, &w2s)
	used1, f1 := scanSlots(&w1s, tag, true)
	used2, f2 := scanSlots(&w2s, tag, false)
	color := freeColor(used1 | used2)
	if color == numColors {
		return 0, ErrTableFull
	}
	if f1 >= 0 {
		n.setIdentity(tag, true, color)
		t.writeSlot(b1, f1, n)
		return color, nil
	}
	if f2 >= 0 {
		n.setIdentity(tag, false, color)
		t.writeSlot(b2, f2, n)
		return color, nil
	}
	if found, applied := t.evict(h, rebuildKicks, nil); !found || !applied {
		return 0, ErrTableFull
	}
	return b.insertEntry(h, n)
}

// patch rewrites the new-table node at l as f returns it. f takes and
// returns the node by value so that it stays off the heap.
func (b *rebuilder) patch(l locator, f func(node) node) {
	n, ref, ok := b.dst.lockedFind(l)
	if !ok {
		panic("cuckootrie: rebuild patch target missing")
	}
	b.dst.writeSlot(ref.bucket, ref.slot, f(n))
}

func (b *rebuilder) patchLoc(l locator, target locator, has bool) {
	b.patch(l, func(n node) node {
		n.setFlag(hasLocBit, has)
		if has {
			n.setLoc(target)
		}
		return n
	})
}

func (b *rebuilder) patchNext(l locator, target locator) {
	b.patch(l, func(n node) node {
		n.setFlag(hasNextBit, true)
		n.setLoc(target)
		return n
	})
}

func (b *rebuilder) patchChildColor(l locator, c uint8) {
	b.patch(l, func(n node) node {
		n.set(fChildColor, c)
		return n
	})
}

// lockedFind and lockedChild are locate and childOf for a quiesced (or
// unpublished) table, read without seqlock choreography: the probe's
// word-0 match on each candidate head, then the matched slot's cold words.
func (t *table) lockedFind(l locator) (node, slotRef, bool) {
	return t.lockedProbe(l.hash, matchByLoc(l), matchMaskByLoc)
}

// lockedChild finds the child for symbol s, of hash h, of the node with
// word 0 pw0.
func (t *table) lockedChild(pw0, h uint64, s byte) (node, bool) {
	want, mask := childMatch(pw0, s)
	n, _, ok := t.lockedProbe(h, want, mask)
	return n, ok
}

func (t *table) lockedProbe(h, want, mask uint64) (node, slotRef, bool) {
	b1, b2, tag := t.bucketsOf(h)
	for _, bc := range [2]struct{ b, want uint64 }{{b1, want | tagBits(tag, true)}, {b2, want | tagBits(tag, false)}} {
		head, _ := bucketAt(bc.b)
		if w0, s := t.matchHead(head, bc.want, mask); s >= 0 {
			w1, w2 := t.loadCold(bc.b, s)
			return node{w0, w1, w2}, slotRef{bc.b, s}, true
		}
	}
	return node{}, slotRef{}, false
}

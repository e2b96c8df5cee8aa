package core

import (
	"math/bits"
	"sync"
)

// A plan accumulates a writer's intended changes — new entries to place and
// existing entries to overwrite — computed optimistically from consistent
// bucket snapshots. Applying the plan CAS-locks every involved bucket,
// validating that nothing changed since it was read (§5), then takes an
// insert's record, writes and releases. Any validation failure aborts the
// whole plan, which has then taken nothing, and the operation restarts
// from scratch.

type plannedWrite struct {
	b    uint64
	slot int
	n    node
}

type plannedMod struct {
	ref entryRef
	n   node
}

// snapCacheEnt is a plan's copy of word 0 of each slot of one bucket, read
// under the seqlock at the version the plan registered for the bucket.
// Word 0 holds every field a placement decides on: kind, tag, primacy and
// color. Each placement writes its own word 0 into the copy, so later
// placements of the same plan see the slot taken and the color used.
type snapCacheEnt struct {
	b  uint64
	w0 [entriesPerBucket]uint64
}

type plan struct {
	t     *table
	locks lockSet
	dirty []uint64 // buckets whose content the plan changes

	writes []plannedWrite
	mods   []plannedMod

	snaps []snapCacheEnt

	// checks are buckets the plan read but does not write: the rest of a
	// writer's descent path. apply re-reads their versions once it holds
	// its locks.
	checks []entryRef

	minUpdate bool
	newMin    locator
	minClear  bool

	needRoom     bool
	needRoomHash uint64
	colorsFull   bool // all colors for some hash taken: only a resize helps
	failed       bool

	// An insert's key and value, and the write index of its new leaf (-1
	// for none). apply stores them in the record store once the plan can no
	// longer fail. key is the plan's own copy, so the caller's key does not
	// escape to the pooled plan.
	key  []byte
	val  uint64
	leaf int
}

// Plans are pooled: writers build and apply several per second per core,
// and the slice-backed bookkeeping would otherwise dominate insert cost.
var planPool = sync.Pool{New: func() any { return &plan{} }}

func newPlan(t *table) *plan {
	p := planPool.Get().(*plan)
	p.reset(t)
	return p
}

// recycle returns the plan to the pool. The caller must not touch it after.
func (p *plan) recycle() { planPool.Put(p) }

func (p *plan) reset(t *table) {
	p.t = t
	p.locks.reset()
	p.dirty = p.dirty[:0]
	p.writes = p.writes[:0]
	p.mods = p.mods[:0]
	p.snaps = p.snaps[:0]
	p.checks = p.checks[:0]
	p.minUpdate = false
	p.minClear = false
	p.needRoom = false
	p.colorsFull = false
	p.failed = false
	p.leaf = -1
}

// placeLeaf places the inserted key's leaf, for symbol lastSym under the
// parent of color parentColor. A key of ≤ 8 bytes goes in the leaf's key
// word now; a longer key's triple and the record index are filled in by
// apply.
func (p *plan) placeLeaf(h uint64, lastSym byte, parentColor uint8) (int, locator) {
	n := node{w0: newWord0(kindLeaf, lastSym) | fParentColor.put(parentColor)}
	if len(p.key) <= inlineKeyMax {
		n.w0 |= fJumpLen.put(uint8(len(p.key) + 1))
		n.w1 = inlineKey(p.key)
	}
	li, loc := p.place(h, n)
	p.leaf = li
	return li, loc
}

// snapshot returns the index in p.snaps of bucket b's word-0 snapshot,
// reading and caching it on first use and registering its version for
// lock-time validation. An index, not a pointer: the cache may relocate.
func (p *plan) snapshot(b uint64) (int, bool) {
	for i := range p.snaps {
		if p.snaps[i].b == b {
			return i, true
		}
	}
	s := snapCacheEnt{b: b}
	ver, ok := p.t.loadHeads(b, &s.w0)
	if !ok {
		p.failed = true
		return -1, false
	}
	p.snaps = append(p.snaps, s)
	p.locks.add(b, ver)
	return len(p.snaps) - 1, true
}

// addRef registers an already-read entry's bucket version for validation.
func (p *plan) addRef(ref entryRef) { p.locks.add(ref.bucket, ref.ver) }

// addPred registers what a predecessor walk read, when it found a leaf.
func (p *plan) addPred(pred *predLeaf, found bool) {
	if found {
		p.addRef(pred.via)
		p.addRef(pred.ref)
	}
}

func (p *plan) markDirty(b uint64) {
	for _, d := range p.dirty {
		if d == b {
			return
		}
	}
	p.dirty = append(p.dirty, b)
}

// scanSlots reads the word 0s of one candidate bucket of a hash with the
// given tag, primary for its primary bucket: used is the set (as a bitmask)
// of colors its live entries of that hash hold, free its first empty slot
// (-1 if none). Placements in a plan and in the rebuilder both use it.
func scanSlots(w0s *[entriesPerBucket]uint64, tag uint8, primary bool) (used uint8, free int) {
	want := tagBits(tag, primary)
	free = -1
	for i, w := range w0s {
		switch {
		case rawKind(w) == kindEmpty:
			if free < 0 {
				free = i
			}
		case w&tagPrimaryMask == want:
			used |= 1 << rawColor(w)
		}
	}
	return used, free
}

// freeColor returns the lowest color not in used, or numColors when every
// color is taken.
func freeColor(used uint8) uint8 { return uint8(bits.TrailingZeros8(^used)) }

// place allocates a slot and a color for a new entry with hash h and
// registers the write. The prototype's identity fields (tag, primary, color)
// are filled in. Returns the write index (for later field patching) and the
// entry's locator. On failure the plan is marked needRoom (no free slot) or
// failed (transient read conflict / colors exhausted).
func (p *plan) place(h uint64, proto node) (int, locator) {
	if p.failed || p.needRoom {
		return -1, locator{}
	}
	b1, b2, tag := p.t.bucketsOf(h)
	i1, ok := p.snapshot(b1)
	if !ok {
		return -1, locator{}
	}
	i2, ok := p.snapshot(b2)
	if !ok {
		return -1, locator{}
	}
	s1, s2 := &p.snaps[i1], &p.snaps[i2]
	used1, free1 := scanSlots(&s1.w0, tag, true)
	used2, free2 := scanSlots(&s2.w0, tag, false)
	color := freeColor(used1 | used2)
	if color == numColors {
		// All colors for this hash are taken. Relocation cannot help (colors
		// are per-hash across both buckets); only a resize — with its new
		// geometry and hash values — resolves this.
		p.colorsFull = true
		return -1, locator{}
	}
	s, slot, primary := s1, free1, true
	if slot < 0 {
		s, slot, primary = s2, free2, false
	}
	if slot < 0 {
		p.needRoom = true
		p.needRoomHash = h
		return -1, locator{}
	}
	proto.setIdentity(tag, primary, color)
	s.w0[slot] = proto.w0
	p.writes = append(p.writes, plannedWrite{s.b, slot, proto})
	return len(p.writes) - 1, locator{h, color}
}

// entOf returns a mutable pointer to a placed node for field patching.
func (p *plan) entOf(writeIdx int) *node { return &p.writes[writeIdx].n }

// modify registers (or returns the already-registered) overwrite of node
// n, starting from a copy of the words it was read as. The returned pointer
// is mutated by the caller.
func (p *plan) modify(n *pathNode) *node {
	if m := p.modOf(n.ref); m != nil {
		return m
	}
	p.mods = append(p.mods, plannedMod{n.ref, n.node})
	return &p.mods[len(p.mods)-1].n
}

// modOf registers ref for validation and returns its overwrite, if any.
func (p *plan) modOf(ref entryRef) *node {
	p.addRef(ref)
	for i := range p.mods {
		if p.mods[i].ref.slotRef == ref.slotRef {
			return &p.mods[i].n
		}
	}
	return nil
}

// clearEntry registers removal of an existing entry.
func (p *plan) clearEntry(ref entryRef) {
	if m := p.modOf(ref); m != nil {
		*m = node{}
		return
	}
	p.mods = append(p.mods, plannedMod{ref: ref})
}

// check registers path's nodes as validate-only reads: a descent's nodes
// decide what a plan writes (an ancestor's bitmap picks the predecessor) even
// where the plan does not write them, so a node changed since it was read
// aborts the plan.
func (p *plan) check(path []pathNode) {
	for i := range path {
		p.checks = append(p.checks, path[i].ref)
	}
}

// checked reports whether every validate-only read is unchanged. It runs
// with the plan's locks held; a bucket the plan holds reads its own lock.
func (p *plan) checked() bool {
	for _, r := range p.checks {
		if v := p.t.loadVersion(r.bucket); v != r.ver && !(v == r.ver+1 && p.locks.holds(r.bucket)) {
			return false
		}
	}
	return true
}

// setMin schedules an update of the trie's min-leaf locator. The caller must
// have registered bucket 0 (the convention serializing min updates).
func (p *plan) setMin(l locator) { p.minUpdate, p.newMin, p.minClear = true, l, false }
func (p *plan) clearMin()        { p.minUpdate, p.minClear = true, true }

// apply executes the plan atomically with respect to readers and other
// writers. Reports whether the plan committed.
func (p *plan) apply(tr *Trie) bool {
	if p.failed || p.needRoom {
		return false
	}
	if !p.locks.acquire(p.t) {
		return false
	}
	if !p.checked() {
		p.locks.release(p.t, false)
		return false
	}
	if p.leaf >= 0 {
		// The plan commits: only now does the inserted key take a record.
		n := &p.writes[p.leaf].n
		idx, triple := tr.recs.alloc(p.key, p.val)
		if triple != 0 {
			n.w1 = triple
		}
		n.w2 |= uint64(idx) << recShift
	}
	for i := range p.writes {
		w := &p.writes[i]
		if !p.locks.holds(w.b) {
			// Placement bucket must have been registered via snapshot.
			panic("core: plan write to unlocked bucket")
		}
		p.t.writeSlot(w.b, w.slot, w.n)
		p.markDirty(w.b)
	}
	for i := range p.mods {
		m := &p.mods[i]
		p.t.writeSlot(m.ref.bucket, m.ref.slot, m.n)
		p.markDirty(m.ref.bucket)
	}
	if p.minUpdate {
		if p.minClear {
			tr.minLoc.Store(0)
		} else {
			tr.minLoc.Store(packMinLoc(p.newMin))
		}
		p.markDirty(0)
	}
	p.releaseAll()
	return true
}

func (p *plan) releaseAll() {
	ls := &p.locks
	for i := 0; i < ls.n; i++ {
		bump := false
		for _, d := range p.dirty {
			if d == ls.buckets[i] {
				bump = true
				break
			}
		}
		p.t.unlock(ls.buckets[i], ls.vers[i], bump)
	}
}

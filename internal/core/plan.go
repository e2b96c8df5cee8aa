package core

import (
	"math/bits"
	"sync"
)

// A plan accumulates a writer's intended changes — new entries to place and
// existing entries to overwrite — computed optimistically from consistent
// bucket snapshots. Applying the plan CAS-locks every involved bucket,
// validating that nothing changed since it was read (§5), then writes and
// releases. Any validation failure aborts the whole plan and the operation
// restarts from scratch.

type plannedWrite struct {
	b    uint64
	slot int
	ent  entry
}

type plannedMod struct {
	ref entryRef
	ent entry
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

	// The inserted key's record, once allocRecord took it: its value slot,
	// and its leaf's key word and length code (entry.go). A plan that does
	// not commit releases the slot (releaseRecord).
	rec     uint32
	keyW1   uint64
	keyCode uint8
	hasRec  bool
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
	p.hasRec = false
}

// allocRecord stores the inserted key's record: its value, and its bytes
// when they do not fit the leaf's key word.
func (p *plan) allocRecord(rs *recordStore, k []byte, v uint64) {
	p.rec, p.keyW1, p.keyCode = rs.alloc(k, v)
	p.hasRec = true
}

// releaseRecord frees the slot allocRecord took, for a plan that did not
// commit.
func (p *plan) releaseRecord(rs *recordStore) {
	if p.hasRec {
		rs.release(p.rec)
		p.hasRec = false
	}
}

// newLeaf returns the inserted key's leaf: the plan's record, under the
// parent of color parentColor, for symbol lastSym.
func (p *plan) newLeaf(lastSym byte, parentColor uint8) entry {
	return entry{
		kind:        kindLeaf,
		lastSym:     lastSym,
		parentColor: parentColor,
		jumpLen:     p.keyCode,
		recIdx:      p.rec,
		w1:          p.keyW1,
	}
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
	ver, ok := p.t.loadSlots(b, s.w0[:])
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

// tagPrimaryMask selects the word-0 fields that, with the bucket, name an
// entry's hash: its tag and its primacy.
const tagPrimaryMask = uint64(0xf)<<2 | primaryBit

// scanSlots reads the word 0s of one candidate bucket of a hash with the
// given tag, primary for its primary bucket: used is the set (as a bitmask)
// of colors its live entries of that hash hold, free its first empty slot
// (-1 if none). Placements in a plan and in the rebuilder both use it.
func scanSlots(w0s *[entriesPerBucket]uint64, tag uint8, primary bool) (used uint8, free int) {
	want := uint64(tag) << 2
	if primary {
		want |= primaryBit
	}
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
func (p *plan) place(h uint64, proto entry) (int, locator) {
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
	proto.tag = tag
	proto.primary = primary
	proto.color = color
	s.w0[slot], _, _ = proto.encode()
	p.writes = append(p.writes, plannedWrite{s.b, slot, proto})
	return len(p.writes) - 1, locator{h, color}
}

// entOf returns a mutable pointer to a placed entry for field patching.
func (p *plan) entOf(writeIdx int) *entry { return &p.writes[writeIdx].ent }

// modify registers (or returns the already-registered) overwrite of node
// n, decoding n's words on its first edit. The returned pointer is mutated
// by the caller.
func (p *plan) modify(n *pathNode) *entry {
	if e := p.modOf(n.ref); e != nil {
		return e
	}
	p.mods = append(p.mods, plannedMod{n.ref, decodeEntry(n.w0, n.w1, n.w2)})
	return &p.mods[len(p.mods)-1].ent
}

// modOf registers ref for validation and returns its overwrite, if any.
func (p *plan) modOf(ref entryRef) *entry {
	p.addRef(ref)
	for i := range p.mods {
		if p.mods[i].ref.slotRef == ref.slotRef {
			return &p.mods[i].ent
		}
	}
	return nil
}

// clearEntry registers removal of an existing entry.
func (p *plan) clearEntry(ref entryRef) {
	if e := p.modOf(ref); e != nil {
		*e = entry{}
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
	for i := range p.writes {
		w := &p.writes[i]
		if !p.locks.holds(w.b) {
			// Placement bucket must have been registered via snapshot.
			panic("core: plan write to unlocked bucket")
		}
		p.t.writeSlot(w.b, w.slot, w.ent)
		p.markDirty(w.b)
	}
	for i := range p.mods {
		m := &p.mods[i]
		p.t.writeSlot(m.ref.bucket, m.ref.slot, m.ent)
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

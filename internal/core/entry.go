package core

// Entry encoding. Each hash table entry is one trie node, packed into three
// 64-bit words so that readers can snapshot it with three atomic loads under
// the bucket seqlock. The paper packs entries into 15 bytes (Figure 4); Go's
// race-checked memory model requires word-granular atomics, so we spend 24
// bytes and report both layouts in the memory accounting (see stats.go).
//
// Word 0 (metadata + record index):
//
//	bits  0-1   kind (empty / internal / jump / leaf)
//	bits  2-5   tag: h mod t
//	bit   6     primary: entry is in its primary bucket B1
//	bits  7-12  lastSymbol: final symbol of this node's name
//	bits 13-15  color: unique among live entries with the same hash
//	bits 16-18  parentColor: color of the parent entry (regular nodes)
//	bit   19    dirty: leaf made transiently inconsistent / deleted (§5)
//	bits 20-23  jumpLen: number of compressed symbols (jump nodes)
//	bits 24-26  locColor: color half of the locator in word 2
//	bits 27-29  childColor: color of a jump node's sole child
//	bit   30    hasNext: leaf has a successor (word 2 locator valid)
//	bit   31    hasLoc: subtree-max locator valid (internal/jump)
//	bit   32    parentIsJump: this node is the sole child of a jump node, so
//	            its parentColor field is meaningless and the entry must never
//	            match a SearchByParent probe (leaves are never jump children,
//	            so the bit does not collide with their record index)
//	bits 33-63  record index (leaves)
//
// Word 1: child bitmap (internal, 33 bits) | packed jump symbols (jump,
// 6 bits each) | unused (leaf).
//
// Word 2: locator hash — subtree-max leaf for internal/jump nodes, next leaf
// in key order for leaves. A locator is (hash, color): it survives cuckoo
// relocations, unlike a memory address (§4.4).
const (
	kindEmpty    = 0
	kindInternal = 1
	kindJump     = 2
	kindLeaf     = 3
)

type entry struct {
	kind         uint8
	tag          uint8
	primary      bool
	lastSym      byte
	color        uint8
	parentColor  uint8
	dirty        bool
	jumpLen      uint8
	locColor     uint8
	childColor   uint8
	hasNext      bool
	hasLoc       bool
	parentIsJump bool
	recIdx       uint32
	w1           uint64 // bitmap | jump symbols
	locHash      uint64 // subtree-max (internal/jump) or next-leaf (leaf) hash
}

func (e *entry) encode() (w0, w1, w2 uint64) {
	w0 = uint64(e.kind) & 3
	w0 |= uint64(e.tag&0xf) << 2
	if e.primary {
		w0 |= primaryBit
	}
	w0 |= uint64(e.lastSym&0x3f) << 7
	w0 |= uint64(e.color&7) << 13
	w0 |= uint64(e.parentColor&7) << 16
	if e.dirty {
		w0 |= 1 << 19
	}
	w0 |= uint64(e.jumpLen&0xf) << 20
	w0 |= uint64(e.locColor&7) << 24
	w0 |= uint64(e.childColor&7) << 27
	if e.hasNext {
		w0 |= 1 << 30
	}
	if e.hasLoc {
		w0 |= 1 << 31
	}
	if e.parentIsJump {
		w0 |= 1 << 32
	}
	w0 |= uint64(e.recIdx&0x7fffffff) << 33
	return w0, e.w1, e.locHash
}

func decodeEntry(w0, w1, w2 uint64) entry {
	return entry{
		kind:         rawKind(w0),
		tag:          uint8(w0 >> 2 & 0xf),
		primary:      w0&primaryBit != 0,
		lastSym:      byte(w0 >> 7 & 0x3f),
		color:        rawColor(w0),
		parentColor:  uint8(w0 >> 16 & 7),
		dirty:        rawDirty(w0),
		jumpLen:      uint8(rawJumpLen(w0)),
		locColor:     uint8(w0 >> 24 & 7),
		childColor:   rawChildColor(w0),
		hasNext:      w0>>30&1 != 0,
		hasLoc:       w0>>31&1 != 0,
		parentIsJump: w0>>32&1 != 0,
		recIdx:       rawRecIdx(w0),
		w1:           w1,
		locHash:      w2,
	}
}

// Word-0 fields read in place. The lookup paths carry a node as its raw
// words and read only the fields they branch on; no entry is decoded.
const primaryBit = 1 << 6

func rawKind(w0 uint64) uint8       { return uint8(w0 & 3) }
func rawColor(w0 uint64) uint8      { return uint8(w0 >> 13 & 7) }
func rawDirty(w0 uint64) bool       { return w0>>19&1 != 0 }
func rawJumpLen(w0 uint64) int      { return int(w0 >> 20 & 0xf) }
func rawChildColor(w0 uint64) uint8 { return uint8(w0 >> 27 & 7) }
func rawRecIdx(w0 uint64) uint32    { return uint32(w0 >> 33 & 0x7fffffff) }

// rawJumpSymbol returns the i'th compressed symbol of a jump node's word 1.
func rawJumpSymbol(w1 uint64, i int) byte {
	return byte(w1 >> (6 * uint(i)) & 0x3f)
}

// jumpSymbol returns the i'th compressed symbol of a jump node.
func (e *entry) jumpSymbol(i int) byte { return rawJumpSymbol(e.w1, i) }

// packJumpSymbols packs syms (len ≤ maxJumpSymbols) into a word-1 value.
func packJumpSymbols(syms []byte) uint64 {
	var w uint64
	for i, s := range syms {
		w |= uint64(s&0x3f) << (6 * uint(i))
	}
	return w
}

// bitmap helpers: word 1 of an internal node has bit s set iff the node has a
// child whose next symbol is s.
func bitmapHas(w uint64, sym byte) bool     { return w>>uint(sym)&1 != 0 }
func bitmapSet(w uint64, sym byte) uint64   { return w | 1<<uint(sym) }
func bitmapClear(w uint64, sym byte) uint64 { return w &^ (1 << uint(sym)) }

// locator identifies a node's entry independently of relocations: the full
// key hash plus the entry's color (Figure 4).
type locator struct {
	hash  uint64
	color uint8
}

func (e *entry) maxLeafLoc() locator  { return locator{e.locHash, e.locColor} }
func (e *entry) nextLeafLoc() locator { return locator{e.locHash, e.locColor} }

func (e *entry) setLoc(l locator) {
	e.locHash = l.hash
	e.locColor = l.color
}

package core

// Entry encoding. Each hash table entry is one trie node, packed into a
// 32-bit word 0 and two 64-bit words so that readers can snapshot it with
// atomic loads under the bucket seqlock. The paper packs entries into 15
// bytes (Figure 4); Go's race-checked memory model requires word-granular
// atomics, so an entry takes 20 bytes, split between its bucket's head line
// and its cold line (table.go), and the memory accounting reports both
// layouts (see stats.go).
//
// Word 0 (32 bits; carried zero-extended in a uint64 outside table.go):
//
//	bits  0-1   kind (empty / internal / jump / leaf)
//	bits  2-5   tag: h mod t
//	bit   6     primary: entry is in its primary bucket B1
//	bits  7-12  lastSymbol: final symbol of this node's name
//	bits 13-15  color: unique among live entries with the same hash
//	bits 16-18  parentColor: color of the parent entry (regular nodes)
//	bit   19    parentIsJump: this node is the sole child of a jump node, so
//	            its parentColor field is meaningless and the entry must never
//	            match a SearchByParent probe
//	bits 20-23  jumpLen: number of compressed symbols (jump nodes); for a
//	            leaf, its key's length code: len+1 for a key of ≤ 8 bytes
//	            held inline in word 1, 0 for a longer key held in a chunk
//	bits 24-26  locColor: color half of the locator in word 2
//	bits 27-29  childColor: color of a jump node's sole child
//	bit   30    hasNext: leaf has a successor (word 2 locator valid)
//	bit   31    hasLoc: subtree-max locator valid (internal/jump)
//
// Word 1: child bitmap (internal, 33 bits) | packed jump symbols (jump,
// 6 bits each) | key word (leaf): a key of ≤ 8 bytes packed little-endian
// and zero-padded, or a longer key's chunk<<33 | offset<<13 | len triple
// (recstore.go). A leaf's words thus hold its whole key, so a lookup
// decides the key from the same seqlock read that found the leaf.
//
// Word 2: locator hash in bits 0-31 — subtree-max leaf for internal/jump
// nodes, next leaf in key order for leaves — and, for a leaf, its record
// index in bits 32-63; an internal or jump node's high half is zero. A
// locator is (hash, color): it survives cuckoo relocations, unlike a memory
// address (§4.4). Hashes fit 32 bits because tables are capped at 2^28
// buckets (maxBuckets), so S·t ≤ 2^32.
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
	jumpLen      uint8 // jump: symbol count; leaf: key length code
	locColor     uint8
	childColor   uint8
	hasNext      bool
	hasLoc       bool
	parentIsJump bool
	recIdx       uint32 // leaf: record index, word 2's high half
	w1           uint64 // bitmap | jump symbols | key word
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
		w0 |= parentIsJumpBit
	}
	return w0, e.w1, e.locHash | uint64(e.recIdx)<<32
}

func decodeEntry(w0, w1, w2 uint64) entry {
	return entry{
		kind:         rawKind(w0),
		tag:          rawTag(w0),
		primary:      w0&primaryBit != 0,
		lastSym:      byte(w0 >> 7 & 0x3f),
		color:        rawColor(w0),
		parentColor:  uint8(w0 >> 16 & 7),
		jumpLen:      uint8(rawJumpLen(w0)),
		locColor:     uint8(w0 >> 24 & 7),
		childColor:   rawChildColor(w0),
		hasNext:      rawHasNext(w0),
		hasLoc:       rawHasLoc(w0),
		parentIsJump: w0&parentIsJumpBit != 0,
		recIdx:       rawRecIdx(w2),
		w1:           w1,
		locHash:      w2 & hashMask,
	}
}

// Word-0 fields read in place. The lookup paths carry a node as its raw
// words and read only the fields they branch on; no entry is decoded.
const (
	primaryBit      = 1 << 6
	parentIsJumpBit = 1 << 19
)

// hashMask selects word 2's locator hash; a leaf's record index is above it.
const hashMask = 1<<32 - 1

func rawKind(w0 uint64) uint8       { return uint8(w0 & 3) }
func rawTag(w0 uint64) uint8        { return uint8(w0 >> 2 & 0xf) }
func rawColor(w0 uint64) uint8      { return uint8(w0 >> 13 & 7) }
func rawJumpLen(w0 uint64) int      { return int(w0 >> 20 & 0xf) }
func rawKeyCode(w0 uint64) int      { return rawJumpLen(w0) } // a leaf's jumpLen bits
func rawChildColor(w0 uint64) uint8 { return uint8(w0 >> 27 & 7) }
func rawRecIdx(w2 uint64) uint32    { return uint32(w2 >> 32) }
func rawHasNext(w0 uint64) bool     { return w0>>30&1 != 0 }
func rawHasLoc(w0 uint64) bool      { return w0>>31&1 != 0 }

// rawJumpSymbol returns the i'th compressed symbol of a jump node's word 1.
func rawJumpSymbol(w1 uint64, i int) byte {
	return byte(w1 >> (6 * uint(i)) & 0x3f)
}

// jumpSymbol returns the i'th compressed symbol of a jump node.
func (e *entry) jumpSymbol(i int) byte { return rawJumpSymbol(e.w1, i) }

// jumpSymbolRange returns symbols [from, to) of a jump node's word 1, packed
// as a word 1 of their own.
func jumpSymbolRange(w1 uint64, from, to int) uint64 {
	return w1 >> (6 * uint(from)) & (1<<(6*uint(to-from)) - 1)
}

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

// rawLoc reads the locator of a node's words: its subtree-max leaf
// (internal/jump) or its next leaf (leaf).
func rawLoc(w0, w2 uint64) locator { return locator{w2 & hashMask, uint8(w0 >> 24 & 7)} }

func (e *entry) setLoc(l locator) {
	e.locHash = l.hash
	e.locColor = l.color
}

// takeNext gives leaf e node n's successor link, splicing e into the leaf
// list where n's link pointed.
func (e *entry) takeNext(n *pathNode) {
	e.hasNext = rawHasNext(n.w0)
	e.setLoc(rawLoc(n.w0, n.w2))
}

package core

// Node format. Each hash table entry is one trie node, packed into a 32-bit
// word 0 and two 64-bit words so that readers can snapshot it with atomic
// loads under the bucket seqlock. The paper packs entries into 15 bytes
// (Figure 4); Go's race-checked memory model requires word-granular atomics,
// so an entry takes 20 bytes, split between its bucket's head line and its
// cold line (table.go), and the memory accounting reports both layouts (see
// stats.go).
//
// A node is only ever its three words: readers branch on them in place,
// and writers edit copies of them with the setters below. Word 0's layout
// is the field table that follows; nothing outside this file names a bit
// position of word 0.
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
type node struct{ w0, w1, w2 uint64 }

const (
	kindEmpty    = 0
	kindInternal = 1
	kindJump     = 2
	kindLeaf     = 3
)

// field is a word-0 field given as its mask: its lowest set bit is the
// shift and its bit count the width. Word 0 is carried zero-extended in a
// uint64 outside table.go.
type field uint64

// Word 0's fields and flags; together they cover bits 0-31 exactly. A
// leaf's fJumpLen is its key's length code: len+1 for a key of ≤ 8 bytes
// held inline in word 1, 0 for a longer key held in a chunk.
const (
	fKind           field = 0x3 << 0  // empty / internal / jump / leaf
	fTag            field = 0xf << 2  // h mod t
	fLastSym        field = 0x3f << 7 // final symbol of this node's name
	fColor          field = 0x7 << 13 // unique among live entries with the same hash
	fParentColor    field = 0x7 << 16 // color of the parent entry (regular parents)
	fJumpLen        field = 0xf << 20 // jump: symbol count; leaf: key length code
	fLocColor       field = 0x7 << 24 // color half of the locator in word 2
	fChildColor     field = 0x7 << 27 // color of a jump node's sole child
	primaryBit            = 1 << 6    // entry is in its primary bucket B1
	parentIsJumpBit       = 1 << 19   // sole child of a jump node: fParentColor is 0 and never matched
	hasNextBit            = 1 << 30   // leaf has a successor (word 2 locator valid)
	hasLocBit             = 1 << 31   // subtree-max locator valid (internal/jump)
)

// get and put move a field's value out of and into place by dividing and
// multiplying by the field's lowest bit, f&-f. For a constant f both fold
// to shifts by constants, so an accessor compiles to a shift and a mask.
func (f field) get(w0 uint64) uint64 { return w0 / uint64(f&-f) & uint64(f/(f&-f)) }
func (f field) put(v uint8) uint64   { return uint64(v) * uint64(f&-f) & uint64(f) }
func (n *node) set(f field, v uint8) { n.w0 = n.w0&^uint64(f) | f.put(v) }
func (n *node) setFlag(bit uint64, on bool) {
	if on {
		n.w0 |= bit
	} else {
		n.w0 &^= bit
	}
}

// Word-0 matches. A probe compares one atomic load of each slot's word 0
// against a match value under a mask, with tagBits added for the bucket.
const (
	// tagPrimaryMask selects the fields that, with the bucket, name an
	// entry's hash: its tag and its primacy.
	tagPrimaryMask    = uint64(fTag) | primaryBit
	matchMaskByParent = tagPrimaryMask | uint64(fLastSym|fParentColor) | parentIsJumpBit
	matchMaskByColor  = tagPrimaryMask | uint64(fLastSym|fColor)
	matchMaskByLoc    = tagPrimaryMask | uint64(fColor)
)

// tagBits is the word-0 tag and primacy of an entry of a hash with tag tag,
// in its primary or secondary bucket.
func tagBits(tag uint8, primary bool) uint64 {
	w := fTag.put(tag)
	if primary {
		w |= primaryBit
	}
	return w
}

// childMatch returns the word-0 match (tag and primary bit excluded) that
// identifies the child for symbol s of the node with word 0 pw0: a jump
// node's child by its own color, which the jump node holds as childColor; a
// regular node's child by its parentColor, the node's color. Either color
// moves between two fields of equal width, so the ratio of their masks is
// the shift that moves it.
func childMatch(pw0 uint64, s byte) (want, mask uint64) {
	want = fLastSym.put(s)
	if rawKind(pw0) == kindJump {
		return want | pw0&uint64(fChildColor)/uint64(fChildColor/fColor), matchMaskByColor
	}
	return want | pw0&uint64(fColor)*uint64(fParentColor/fColor), matchMaskByParent
}

func matchByLoc(l locator) uint64 { return fColor.put(l.color) }

// newWord0 is the word 0 of a new node of kind kind whose name ends in
// lastSym. The caller adds how it links to its parent and its kind's
// fields; a placement adds its tag, primacy and color (setIdentity).
func newWord0(kind uint8, lastSym byte) uint64 {
	return fKind.put(kind) | fLastSym.put(lastSym)
}

// setIdentity gives n the tag, primacy and color that, with its bucket,
// name its entry.
func (n *node) setIdentity(tag uint8, primary bool, color uint8) {
	n.w0 = n.w0&^(tagPrimaryMask|uint64(fColor)) | tagBits(tag, primary) | fColor.put(color)
}

// setParent links n under a regular parent of color c or, when viaJump,
// under a jump node, which names its child by the child's own color.
func (n *node) setParent(c uint8, viaJump bool) {
	if viaJump {
		c = 0
	}
	n.set(fParentColor, c)
	n.setFlag(parentIsJumpBit, viaJump)
}

// hashMask selects word 2's locator hash; a leaf's record index is above it.
const (
	hashMask = 1<<32 - 1
	recShift = 32
)

func rawKind(w0 uint64) uint8       { return uint8(fKind.get(w0)) }
func rawTag(w0 uint64) uint8        { return uint8(fTag.get(w0)) }
func rawColor(w0 uint64) uint8      { return uint8(fColor.get(w0)) }
func rawJumpLen(w0 uint64) int      { return int(fJumpLen.get(w0)) }
func rawKeyCode(w0 uint64) int      { return rawJumpLen(w0) } // a leaf's jumpLen bits
func rawChildColor(w0 uint64) uint8 { return uint8(fChildColor.get(w0)) }
func rawRecIdx(w2 uint64) uint32    { return uint32(w2 >> recShift) }
func rawHasNext(w0 uint64) bool     { return w0&hasNextBit != 0 }
func rawHasLoc(w0 uint64) bool      { return w0&hasLocBit != 0 }

// rawJumpSymbol returns the i'th compressed symbol of a jump node's word 1.
func rawJumpSymbol(w1 uint64, i int) byte {
	return byte(w1 >> (6 * uint(i)) & 0x3f)
}

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
func rawLoc(w0, w2 uint64) locator { return locator{w2 & hashMask, uint8(fLocColor.get(w0))} }

func (n *node) setLoc(l locator) {
	n.set(fLocColor, l.color)
	n.w2 = n.w2&^hashMask | l.hash
}

// takeNext gives leaf n the successor link of leaf from, splicing n into the
// leaf list where from's link pointed.
func (n *node) takeNext(from *node) {
	n.setFlag(hasNextBit, rawHasNext(from.w0))
	n.setLoc(rawLoc(from.w0, from.w2))
}

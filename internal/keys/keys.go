// Package keys converts byte-string keys into the 5-bit symbol streams used
// by the Cuckoo Trie, and provides order-preserving key encoders for common
// fixed-width types.
//
// The paper configures the Cuckoo Trie with 5-bit symbols (§6.1). A key of n
// bytes is viewed as a bit string (MSB first) and cut into ⌈8n/5⌉ symbols;
// the final symbol is zero-padded. Every key is then terminated with an extra
// terminator symbol so that no key's symbol sequence is a prefix of another
// key's (the paper's trie stores unique prefixes, which requires this
// property, cf. §4).
//
// To keep the symbol order consistent with byte-lexicographic key order even
// in the presence of zero padding, data symbols are shifted up by one
// (values 1..32) and the terminator is symbol 0, the minimum. With this
// encoding:
//
//   - distinct keys have distinct symbol sequences,
//   - no sequence is a proper prefix of another, and
//   - lexicographic order on symbol sequences equals lexicographic order on
//     the original byte strings.
package keys

import (
	"encoding/binary"
	"slices"
)

const (
	// SymbolBits is the number of payload bits per symbol.
	SymbolBits = 5
	// Terminator is the symbol appended to every key. It is the minimum
	// symbol value so that a key sorts before all of its extensions.
	Terminator = 0
	// MinData and MaxData bound the shifted data symbol values.
	MinData = 1
	MaxData = 32
	// AlphabetSize is the number of distinct symbols (terminator included).
	AlphabetSize = 33
)

// NumSymbols returns the number of symbols in the encoding of k, including
// the trailing terminator.
func NumSymbols(k []byte) int {
	return (8*len(k)+SymbolBits-1)/SymbolBits + 1
}

// DataSymbols returns the number of non-terminator symbols of k.
func DataSymbols(k []byte) int {
	return (8*len(k) + SymbolBits - 1) / SymbolBits
}

// SymbolAt returns the i'th symbol of k. It panics if i is out of range.
// Data symbols are in [MinData, MaxData]; the final symbol is Terminator.
func SymbolAt(k []byte, i int) byte {
	data := (8*len(k) + SymbolBits - 1) / SymbolBits
	if i == data {
		return Terminator
	}
	if i < 0 || i > data {
		panic("keys: symbol index out of range")
	}
	bit := i * SymbolBits
	idx := bit >> 3
	off := uint(bit & 7)
	v := uint16(k[idx]) << 8
	if idx+1 < len(k) {
		v |= uint16(k[idx+1])
	}
	return byte((v>>(11-off))&0x1f) + MinData
}

// AppendSymbols appends the full symbol sequence of k (terminator included)
// to dst and returns the extended slice. Five key bytes are exactly eight
// symbols, so it converts one 40-bit big-endian load per step and stores the
// eight symbols as one word; the last zero to four bytes are zero-padded.
// The output equals the SymbolAt sequence.
func AppendSymbols(dst []byte, k []byte) []byte {
	n := NumSymbols(k)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	i := 0
	for ; len(k) >= 5; k = k[5:] {
		v := uint64(binary.BigEndian.Uint32(k))<<8 | uint64(k[4])
		binary.LittleEndian.PutUint64(out[i:], spreadSymbols(v))
		i += 8
	}
	if len(k) > 0 {
		var tail [5]byte
		copy(tail[:], k)
		v := uint64(binary.BigEndian.Uint32(tail[:]))<<8 | uint64(tail[4])
		var syms [8]byte
		binary.LittleEndian.PutUint64(syms[:], spreadSymbols(v))
		i += copy(out[i:n-1], syms[:])
	}
	out[i] = Terminator
	return dst[:len(dst)+n]
}

// spreadSymbols cuts a 40-bit big-endian bit string into eight 5-bit data
// symbols, first symbol in the lowest byte.
func spreadSymbols(v uint64) uint64 {
	const lsb = 0x0101010101010101
	w := v>>35&0x1f | (v>>30&0x1f)<<8 | (v>>25&0x1f)<<16 | (v>>20&0x1f)<<24 |
		(v>>15&0x1f)<<32 | (v>>10&0x1f)<<40 | (v>>5&0x1f)<<48 | (v&0x1f)<<56
	return w + lsb*MinData
}

// CommonPrefixLen returns the length (in symbols) of the longest common
// prefix of the symbol sequences of a and b.
func CommonPrefixLen(a, b []byte) int {
	na, nb := NumSymbols(a), NumSymbols(b)
	n := na
	if nb < n {
		n = nb
	}
	for i := 0; i < n; i++ {
		if SymbolAt(a, i) != SymbolAt(b, i) {
			return i
		}
	}
	return n
}

// CompareSymbols compares a and b by their symbol sequences, returning
// -1, 0, or +1. It must agree with bytes.Compare; this is checked by the
// package's property tests.
func CompareSymbols(a, b []byte) int {
	na, nb := NumSymbols(a), NumSymbols(b)
	n := na
	if nb < n {
		n = nb
	}
	for i := 0; i < n; i++ {
		sa, sb := SymbolAt(a, i), SymbolAt(b, i)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
	}
	switch {
	case na < nb:
		return -1
	case na > nb:
		return 1
	}
	return 0
}

// Uint64Key encodes v as an 8-byte big-endian key whose byte order matches
// numeric order.
func Uint64Key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Uint64FromKey decodes a key produced by Uint64Key.
func Uint64FromKey(k []byte) uint64 {
	return binary.BigEndian.Uint64(k)
}

// AppendUint64Key appends the big-endian encoding of v to dst.
func AppendUint64Key(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

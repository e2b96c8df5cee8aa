package core

import "unsafe"

// prefetcht0 asks the CPU to pull the cache line holding *p into every cache
// level (PREFETCHT0). It returns at once, never faults and has no
// architectural effect: a pure hint.
//
//go:noescape
func prefetcht0(p unsafe.Pointer)

// prefetchWord hints the line of a table or record-slot word.
func prefetchWord(p *uint64) { prefetcht0(unsafe.Pointer(p)) }

// prefetchByte hints the line of a key byte.
func prefetchByte(p *byte) { prefetcht0(unsafe.Pointer(p)) }

//go:build !amd64

package core

import "sync/atomic"

// Pure-Go stand-ins for prefetch_amd64.s. A word is touched with an atomic
// load, which the compiler cannot elide (it blocks on the miss instead of
// overlapping it, but warms the line all the same); every table and slot
// word is only ever accessed atomically, so this adds no race. Key bytes
// have no such load and go unhinted.
func prefetchWord(p *uint64) { atomic.LoadUint64(p) }

func prefetchByte(*byte) {}

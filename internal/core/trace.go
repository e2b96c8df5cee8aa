package core

import "repro/internal/keys"

// LookupLevels returns the cache-line addresses a lookup of k touches, one
// slice per trie level: the two candidate buckets of each node on the
// root-to-leaf path, plus the record level when the lookup reads the
// record — a leaf holding a different inline key ends the lookup at the
// leaf. It counts the probe work of Algorithm 1 exactly, including the
// superfluous accesses of §4.7: both buckets are fetched per node, and
// jump nodes do not reduce the probe count (the probes for symbols
// compressed into a jump node are issued anyway). The levels are read off
// searchPath's descent: one per symbol the descent consumed, including the
// one it stopped at. Its consumers are the benchmark's coreShape
// (core.levels_per_lookup, core.probe_lines_per_lookup) and the bench
// package's table3 (lines per lookup × throughput = DRAM demand).
func (tr *Trie) LookupLevels(k []byte) [][]uint64 {
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	var pbuf [32]pathNode
	lineFor := func(b uint64) uint64 { return b * bucketWords * 8 / 64 }
	for {
		t := tr.tbl.Load()
		_, st := tr.searchPath(t, syms, pbuf[:0])
		if st.outcome == soRestart {
			continue
		}
		n := st.idx
		if st.outcome != soLeaf {
			n++ // the symbol the descent stopped at was probed too
		}
		levels := make([][]uint64, 0, n+1)
		h := uint64(0)
		for _, s := range syms[:n] {
			h = t.step(h, s)
			b1, b2, _ := t.bucketsOf(h)
			levels = append(levels, []uint64{lineFor(b1), lineFor(b2)})
		}
		if st.outcome == soLeaf {
			if rec := tr.recordLines(st.terminal(), k); len(rec) > 0 {
				levels = append(levels, rec)
			}
		}
		return levels
	}
}

// recordLines returns the lines a lookup of k reads past leaf n, the final
// dependent access (§4.4): a long key's first chunk line, and on a match
// the 8-byte value slot's line. The lines are tagged into address ranges
// of their own, apart from the buckets'.
func (tr *Trie) recordLines(n *pathNode, k []byte) []uint64 {
	var lines []uint64
	if rawKeyCode(n.w0) == 0 {
		ci, pos, _ := keyTriple(n.w1)
		lines = append(lines, 2<<40+(ci*recChunkSize+pos)/64)
	}
	if tr.recs.leafKeyIs(n.w0, n.w1, k) {
		lines = append(lines, 1<<40+uint64(rawRecIdx(n.w0))*8/64)
	}
	return lines
}

package core

import "repro/internal/keys"

// LookupLevels returns the cache-line addresses a lookup of k touches, one
// slice per trie level: the two candidate buckets of each node on the
// root-to-leaf path, plus the record line. It counts the probe work of
// Algorithm 1 exactly, including the superfluous accesses of §4.7: both
// buckets are fetched per node, and jump nodes do not reduce the probe
// count (the probes for symbols compressed into a jump node are issued
// anyway). Its consumers are the benchmark's coreShape
// (core.levels_per_lookup, core.probe_lines_per_lookup) and the bench
// package's table3 (lines per lookup × throughput = DRAM demand).
func (tr *Trie) LookupLevels(k []byte) [][]uint64 {
	t := tr.tbl.Load()
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)

	var levels [][]uint64
	lineFor := func(b uint64) uint64 { return b * bucketWords * 8 / 64 }
	addLevel := func(h uint64) {
		b1, b2, _ := t.bucketsOf(h)
		levels = append(levels, []uint64{lineFor(b1), lineFor(b2)})
	}

	// Walk the real structure to find the unique-prefix depth; every symbol
	// consumed issues a probe level, even inside jump nodes (§4.7).
	root, rootRef, ok := tr.tryFindRoot(t)
	if !ok {
		return nil
	}
	cur := pathNode{ent: root, ref: rootRef}
	h := uint64(0)
	for i := 0; i < len(syms); {
		s := syms[i]
		h = t.step(h, s)
		addLevel(h)
		switch cur.ent.kind {
		case kindInternal:
			if !bitmapHas(cur.ent.w1, s) {
				return levels
			}
		case kindJump:
			off := i - cur.depth
			if cur.ent.jumpSymbol(off) != s {
				return levels
			}
			if off+1 < int(cur.ent.jumpLen) {
				i++
				continue
			}
		default:
			return levels
		}
		child, ref, cok := t.findChild(&cur, h, s)
		if !cok {
			return levels
		}
		cur = pathNode{ent: child, ref: ref, depth: i + 1, hash: h}
		i++
		if child.kind == kindLeaf {
			// Final dependent access: the record (key comparison, §4.4).
			levels = append(levels, []uint64{1<<40 + uint64(child.recIdx)*32/64})
			return levels
		}
	}
	return levels
}

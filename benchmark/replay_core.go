package main

// Layer replays for core and sharded: the workload's own keys and recorded
// ops run through each layer's public functions, single-threaded and in
// isolation, as child spans of the traced run's "replay" root.

import (
	"runtime"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
)

const (
	replayProbes = 200_000 // lookups per read replay
	replayWrites = 100_000 // fresh keys per write replay
	allocRuns    = 10_000  // ops behind each allocs_per_* count
)

// timed runs fn as a child span of root and returns its duration in ns.
func timed(rp *spanBuf, root uint32, name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	rp.add(root, 0, name, t0, t1)
	return float64(t1.Sub(t0))
}

// allocsPer counts heap allocations per call of fn over calls fn(1)..fn(runs),
// the way testing.AllocsPerRun does: one proc, so no other goroutine
// allocates, and fn(0) first as a warm-up. The count repeats exactly for
// equal inputs.
func allocsPer(runs int, fn func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 1; i <= runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}

// probeSet draws n uniform present keys with a fixed stream, so every run of
// a seed replays the same lookups.
func probeSet(keys [][]byte, n int) (probes [][]byte, idx []uint32) {
	r := newRNG(0x7265706c6179)
	probes, idx = make([][]byte, n), make([]uint32, n)
	for i := range probes {
		idx[i] = uint32(r.intn(len(keys)))
		probes[i] = keys[idx[i]]
	}
	return probes, idx
}

// replayCoreReads times Get against MultiGet at batch 8 and 64 on the same
// lookups: core.mlp_speedup_b64 is the number ROADMAP owes.
func replayCoreReads(rp *spanBuf, root uint32, ix index.Index, keys [][]byte, m map[string]float64) {
	probes, _ := probeSet(keys, replayProbes)
	n := float64(len(probes))
	var sink uint64
	vals := make([]uint64, 64)
	found := make([]bool, 64)
	multiget := func(batch int) func() {
		return func() {
			for i := 0; i+batch <= len(probes); i += batch {
				ix.MultiGet(probes[i:i+batch], vals, found)
			}
		}
	}
	m["core.get_ns_per_key"] = timed(rp, root, "replay.core.get", func() {
		for _, k := range probes {
			v, _ := ix.Get(k)
			sink += v
		}
	}) / n
	m["core.multiget8_ns_per_key"] = timed(rp, root, "replay.core.multiget8", multiget(8)) / n
	m["core.multiget64_ns_per_key"] = timed(rp, root, "replay.core.multiget64", multiget(64)) / n
	m["core.mlp_speedup_b64"] = m["core.get_ns_per_key"] / m["core.multiget64_ns_per_key"]
	m["core.allocs_per_get"] = allocsPer(allocRuns, func(i int) {
		v, _ := ix.Get(probes[i%len(probes)])
		sink += v
	})
	batches := len(probes) / 64
	m["core.allocs_per_multiget_key"] = allocsPer(min(allocRuns, batches), func(i int) {
		b := i % batches
		ix.MultiGet(probes[b*64:(b+1)*64], vals, found)
	}) / 64
	_ = sink
}

// replayCoreWrites times inserts of fresh keys, updates of loaded keys,
// deletes of the fresh keys again (the index ends as it began), cursor
// seeks and a long cursor walk.
func replayCoreWrites(rp *spanBuf, root uint32, ix index.Index, ks keySpace, keys [][]byte, m map[string]float64) {
	nw := min(replayWrites, len(keys))
	fresh := make([][]byte, nw)
	buf := make([]byte, keyLen*nw)
	for i := range fresh {
		fresh[i] = buf[i*keyLen : (i+1)*keyLen]
		ks.put(fresh[i], spaceFresh+9, uint64(i)) // a space no workload worker uses
	}
	probes, idx := probeSet(keys, nw)
	n := float64(nw)
	m["core.set_insert_ns_per_op"] = timed(rp, root, "replay.core.set_insert", func() {
		for i, k := range fresh {
			ix.Set(k, uint64(i))
		}
	}) / n
	m["core.set_update_ns_per_op"] = timed(rp, root, "replay.core.set_update", func() {
		for i, k := range probes {
			ix.Set(k, valueOf(idx[i], i))
		}
	}) / n
	m["core.delete_ns_per_op"] = timed(rp, root, "replay.core.delete", func() {
		for _, k := range fresh {
			ix.Delete(k)
		}
	}) / n
	m["core.seek_ns_per_op"] = timed(rp, root, "replay.core.seek", func() {
		for _, k := range probes {
			c := ix.NewCursor()
			c.Seek(k)
			c.Close()
		}
	}) / n
	walk := min(5*nw, len(keys)-1)
	c := ix.NewCursor()
	c.Seek(nil)
	m["core.cursor_next_ns_per_key"] = timed(rp, root, "replay.core.cursor_next", func() {
		for i := 0; i < walk; i++ {
			c.Next()
		}
	}) / float64(walk)
	c.Seek(nil)
	m["core.allocs_per_cursor_next"] = allocsPer(min(allocRuns, len(keys)/2), func(int) { c.Next() })
	c.Close()
	// Allocations per insert, then the inserts are deleted again.
	ak := fresh[:min(allocRuns+1, nw)]
	m["core.allocs_per_set"] = allocsPer(len(ak)-1, func(i int) { ix.Set(ak[i], 1) })
	for _, k := range ak {
		ix.Delete(k)
	}
}

// coreShape reports the exact structural counts of a trie: probe work per
// lookup from LookupLevels and occupancy from Stats.
func coreShape(t *cuckootrie.Trie, keys [][]byte, buckets0 uint64, m map[string]float64) {
	probes, _ := probeSet(keys, allocRuns)
	levels, lines := 0, 0
	for _, k := range probes {
		lv := t.LookupLevels(k)
		levels += len(lv)
		for _, l := range lv {
			lines += len(l)
		}
	}
	m["core.levels_per_lookup"] = float64(levels) / float64(len(probes))
	m["core.probe_lines_per_lookup"] = float64(lines) / float64(len(probes))
	s := t.Stats()
	m["core.load_factor"] = s.LoadFactor
	m["core.nodes_per_key"] = s.NodesPerKey
	m["core.bytes_per_key"] = s.BytesPerKey
	m["core.table_growth_x"] = float64(s.Buckets) / float64(buckets0)
}

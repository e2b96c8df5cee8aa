// Package sharded turns any index.Index factory into an N-shard
// hash-partitioned engine, adding the cross-core axis to the paper's MLP
// thesis: if the probes of every key in a batch are independent DRAM
// accesses, they are also independent across cores, so a batch can be
// scattered into per-shard sub-batches that execute concurrently and
// compose with each shard's own interleaved probe path (§4.4 generalized
// across keys, then across cores).
//
// Key→shard routing is pluggable (see Router): the default hash router
// spreads any key distribution evenly, and the range router preserves key
// order across shards — split by key prefix until its first bulk load into
// an empty index picks balanced boundaries from that key stream (see
// SampledRouter). MultiGet/MultiSet scatter the batch
// into per-shard sub-batches run on a bounded worker pool, with scratch
// buffers pooled and results written back into the caller's slices in
// caller order. Ordered operations (Scan, Cursor) depend on the router:
// under hash routing they are recovered with a k-way merge cursor over the
// per-shard cursors (the heap top always tracks the global minimum
// remaining key), while under range routing the shards themselves are
// ordered, so a chain cursor walks them in sequence and a range that lives
// in one shard never even opens the others. Either way the cursors are
// recycled through a sync.Pool on Close, so a Scan-heavy workload does not
// allocate a merge structure per call.
package sharded

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// Index is a partitioned wrapper over N inner indexes.
type Index struct {
	shards  []index.Index
	router  Router
	workers int
	scratch sync.Pool
	cursors sync.Pool // pooled *mergeCursor or *chainCursor, per the router
}

// RoundShards returns the shard count New actually builds for a request:
// rounded up to a power of two, minimum 1. Callers that label output by
// shard count should label with this, not the raw request.
func RoundShards(shards int) int {
	n := 1
	for n < shards {
		n <<= 1
	}
	return n
}

// New builds an engine with the given shard count (rounded up to a power of
// two, minimum 1 — see RoundShards) whose shards come from factory;
// capacity is the expected total key count, divided evenly across shards
// for the per-shard hint. Keys route by hash; use NewWithRouter for a
// different routing mode.
func New(shards, capacity int, factory func(capacity int) index.Index) *Index {
	return NewWithRouter(shards, capacity, factory, NewHashRouter)
}

// NewWithRouter is New with an explicit routing mode: mkRouter is invoked
// with the rounded power-of-two shard count and its Router owns the
// key→shard mapping for every operation.
func NewWithRouter(shards, capacity int, factory func(capacity int) index.Index, mkRouter RouterMaker) *Index {
	n := RoundShards(shards)
	x := &Index{
		shards: make([]index.Index, n),
		router: mkRouter(n),
	}
	per := (capacity + n - 1) / n
	for i := range x.shards {
		x.shards[i] = factory(per)
	}
	x.workers = runtime.GOMAXPROCS(0)
	if x.workers > n {
		x.workers = n
	}
	x.scratch.New = func() interface{} { return newScratch(n) }
	ordered := x.router.Ordered()
	x.cursors.New = func() interface{} {
		if ordered {
			return &chainCursor{x: x, cursors: make([]index.Cursor, n), cur: n}
		}
		return &mergeCursor{x: x, cursors: make([]index.Cursor, n)}
	}
	return x
}

// Shards reports the (power-of-two) shard count.
func (x *Index) Shards() int { return len(x.shards) }

// Router reports the engine's routing mode.
func (x *Index) Router() Router { return x.router }

func (x *Index) shardFor(key []byte) index.Index {
	return x.shards[x.router.Route(key)]
}

// Set routes to the owning shard.
func (x *Index) Set(key []byte, value uint64) (bool, error) {
	return x.shardFor(key).Set(key, value)
}

// Get routes to the owning shard.
func (x *Index) Get(key []byte) (uint64, bool) {
	return x.shardFor(key).Get(key)
}

// Delete routes to the owning shard.
func (x *Index) Delete(key []byte) bool {
	return x.shardFor(key).Delete(key)
}

// Len sums the shard counts.
func (x *Index) Len() int {
	total := 0
	for _, s := range x.shards {
		total += s.Len()
	}
	return total
}

// ShardLens reports each shard's key count, in shard order — the raw data
// behind a router's load-balance figure (max/mean of this slice).
func (x *Index) ShardLens() []int {
	lens := make([]int, len(x.shards))
	for i, s := range x.shards {
		lens[i] = s.Len()
	}
	return lens
}

// MemoryOverheadBytes sums the shard overheads.
func (x *Index) MemoryOverheadBytes() int64 {
	var total int64
	for _, s := range x.shards {
		total += s.MemoryOverheadBytes()
	}
	return total
}

// Name identifies the engine as an N-shard wrap of its inner engine,
// tagged with the routing mode.
func (x *Index) Name() string {
	return fmt.Sprintf("Sharded%d[%s](%s)", len(x.shards), x.router.Name(), x.shards[0].Name())
}

// ConcurrentSafe reports whether every shard is concurrent-safe: routing
// alone does not serialize two callers that hash to the same shard.
func (x *Index) ConcurrentSafe() bool {
	for _, s := range x.shards {
		if !index.IsConcurrent(s) {
			return false
		}
	}
	return true
}

// minParallelBatch is the batch size below which scatter-gather runs the
// sub-batches inline: spawning workers costs more than it overlaps.
const minParallelBatch = 32

// scratch holds one call's per-shard sub-batches, pooled across calls.
type scratch struct {
	keys   [][][]byte
	pos    [][]int
	vals   [][]uint64
	found  [][]bool
	errs   [][]error
	added  []int
	active []int // shard ids with at least one key this call
}

func newScratch(n int) *scratch {
	return &scratch{
		keys:   make([][][]byte, n),
		pos:    make([][]int, n),
		vals:   make([][]uint64, n),
		found:  make([][]bool, n),
		errs:   make([][]error, n),
		added:  make([]int, n),
		active: make([]int, 0, n),
	}
}

// split routes keys into per-shard sub-batches, recording each key's caller
// position, and returns the scratch holding them.
func (x *Index) split(keys [][]byte) *scratch {
	sc := x.scratch.Get().(*scratch)
	sc.active = sc.active[:0]
	for i, k := range keys {
		s := x.router.Route(k)
		if len(sc.keys[s]) == 0 {
			sc.keys[s] = sc.keys[s][:0]
			sc.pos[s] = sc.pos[s][:0]
			sc.active = append(sc.active, s)
		}
		sc.keys[s] = append(sc.keys[s], k)
		sc.pos[s] = append(sc.pos[s], i)
	}
	return sc
}

// release drops the sub-batch key references and returns sc to the pool.
func (sc *scratch) release(x *Index) {
	for _, s := range sc.active {
		ks := sc.keys[s]
		for i := range ks {
			ks[i] = nil
		}
		sc.keys[s] = ks[:0]
		sc.pos[s] = sc.pos[s][:0]
	}
	x.scratch.Put(sc)
}

// runShards runs fn(s) for every shard id in ids, on the calling
// goroutine for small batches or a single shard, otherwise on a bounded
// worker pool pulling shard tasks from a shared counter. It is the one
// scheduler behind scatter-gather batches and the partitioned bulk load.
func (x *Index) runShards(ids []int, batch int, fn func(s int)) {
	if len(ids) == 1 || batch < minParallelBatch || x.workers < 2 {
		for _, s := range ids {
			fn(s)
		}
		return
	}
	w := x.workers
	if w > len(ids) {
		w = len(ids)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(ids) {
					return
				}
				fn(ids[t])
			}
		}()
	}
	wg.Wait()
}

// MultiGet scatters the batch into per-shard sub-batches, looks each up with
// the shard's own (possibly interleaved) MultiGet concurrently, and gathers
// the results back into vals/found at the caller's positions. Positions are
// disjoint across shards, so workers write back without synchronization.
func (x *Index) MultiGet(keys [][]byte, vals []uint64, found []bool) {
	if len(keys) == 0 {
		return
	}
	if len(x.shards) == 1 {
		x.shards[0].MultiGet(keys, vals, found)
		return
	}
	sc := x.split(keys)
	x.runShards(sc.active, len(keys), func(s int) {
		sub := sc.keys[s]
		sv := grow(&sc.vals[s], len(sub))
		sf := grow(&sc.found[s], len(sub))
		x.shards[s].MultiGet(sub, sv, sf)
		for j, p := range sc.pos[s] {
			vals[p] = sv[j]
			found[p] = sf[j]
		}
	})
	sc.release(x)
}

// MultiSet scatters the batch like MultiGet, writes each sub-batch with the
// shard's MultiSet concurrently, gathers per-key errors back in caller
// order, and returns the total number of keys newly added.
func (x *Index) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	if len(keys) == 0 {
		return 0
	}
	if len(x.shards) == 1 {
		return x.shards[0].MultiSet(keys, vals, errs)
	}
	sc := x.split(keys)
	x.runShards(sc.active, len(keys), func(s int) {
		sub := sc.keys[s]
		sv := grow(&sc.vals[s], len(sub))
		for j, p := range sc.pos[s] {
			sv[j] = vals[p]
		}
		var se []error
		if errs != nil {
			se = grow(&sc.errs[s], len(sub))
			clear(se)
		}
		sc.added[s] = x.shards[s].MultiSet(sub, sv, se)
		if errs != nil {
			for j, p := range sc.pos[s] {
				errs[p] = se[j]
			}
		}
	})
	added := 0
	for _, s := range sc.active {
		added += sc.added[s]
	}
	sc.release(x)
	return added
}

// Scan walks a pooled cursor, preserving Index.Scan semantics. A single
// shard is scanned natively; under a range router the cursor only opens
// the shards the range actually reaches.
func (x *Index) Scan(start []byte, n int, fn func(key []byte, value uint64) bool) int {
	if len(x.shards) == 1 {
		return x.shards[0].Scan(start, n, fn)
	}
	c := x.NewCursor()
	defer c.Close()
	visited := 0
	for ok := c.Seek(start); ok && visited < n; ok = c.Next() {
		visited++
		if !fn(c.Key(), c.Value()) {
			break
		}
	}
	return visited
}

// NewCursor returns a cursor over the shards: the single shard's native
// cursor, a sequential chain cursor when the router preserves key order
// (opening each shard only when iteration reaches it), or a k-way merge
// cursor under hash routing. Chain and merge cursors are recycled through
// a pool on Close; their per-shard cursors stay open across recycles and
// are repositioned by the next Seek.
func (x *Index) NewCursor() index.Cursor {
	if len(x.shards) == 1 {
		return x.shards[0].NewCursor()
	}
	switch c := x.cursors.Get().(type) {
	case *chainCursor:
		c.closed.Store(false)
		c.cur = len(c.cursors)
		return c
	case *mergeCursor:
		c.closed.Store(false)
		c.heap = c.heap[:0]
		return c
	}
	panic("sharded: unknown pooled cursor type")
}

// grow resizes a pooled scratch slice to n elements, reallocating only when
// capacity is short. Contents are unspecified; callers that need zeroed
// slots clear them.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

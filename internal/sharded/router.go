package sharded

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sort"
	"sync/atomic"
)

// Router maps keys to shards. The routing policy determines not just load
// balance but which ordered-operation strategy is available: a hash router
// spreads any key distribution evenly but scatters the key order across
// shards, so scans need a k-way merge; a range router keeps the order, so
// scans walk shards sequentially and a range that lives in one shard opens
// only that shard's cursor.
type Router interface {
	// Route returns the owning shard of key, in [0, shards). A nil key
	// routes like the empty key.
	Route(key []byte) int
	// Ordered reports whether routing preserves key order across shards:
	// every key owned by shard i compares lexicographically below every key
	// owned by shard i+1. Ordered routers let scans and cursors iterate
	// shards in sequence — no merge — opening each shard's cursor only when
	// the iteration actually reaches it.
	Ordered() bool
	// Name identifies the routing mode in benchmark output.
	Name() string
}

// RouterMaker builds a Router for a power-of-two shard count. New and
// NewWithRouter invoke it with the rounded shard count so the router and
// the shard slice can never disagree.
type RouterMaker func(shards int) Router

// RouterByName resolves a routing mode by its benchmark name.
func RouterByName(name string) (RouterMaker, bool) {
	switch name {
	case "hash":
		return NewHashRouter, true
	case "range":
		return NewSampledRouter, true
	}
	return nil, false
}

// hashRouter routes by maphash of the whole key: even load for any key
// distribution, but shard-scattered key order.
type hashRouter struct {
	seed maphash.Seed
	mask uint64
}

// NewHashRouter returns the default maphash router for a power-of-two
// shard count.
func NewHashRouter(shards int) Router {
	return &hashRouter{seed: maphash.MakeSeed(), mask: uint64(shards - 1)}
}

func (r *hashRouter) Route(key []byte) int {
	return int(maphash.Bytes(r.seed, key) & r.mask)
}

func (r *hashRouter) Ordered() bool { return false }
func (r *hashRouter) Name() string  { return "hash" }

// maxBoundarySample caps how many keys boundary selection sorts: beyond a
// few thousand samples the quantile estimate is already within a percent or
// two of the true key distribution, so sampling a stride of a large stream
// costs one pass instead of an O(n log n) sort of the whole load.
const maxBoundarySample = 8192

// SampledRouter is the range router: a key routes to the number of
// boundaries ≤ it (binary search), which is monotone in lexicographic
// order, so the router is order-preserving and the chain cursor's
// single-shard scan bypass applies. Where the boundaries come from decides
// the balance.
//
// Untrained (NewSampledRouter, the "range" RouterByName mode), the table
// is the prefix split: boundary i is i·2^64/shards as an 8-byte big-endian
// prefix, so a key's shard is the top log2(shards) bits of its first 8
// bytes, zero-padded. That balances uniform keys only — keys sharing a
// common prefix pile onto one shard. Trained, the table holds the keys at
// the n-1 evenly spaced quantiles of a sorted key sample, so each shard
// owns roughly the same fraction of the SAMPLED distribution, balanced for
// any key distribution (az/reddit-style skew included).
//
// Index.BulkLoad trains an untrained router from the insert stream before
// partitioning — but only when the index is still empty, so keys placed
// under the prefix (or a previous) table are never stranded in a shard the
// new table would not route to. Training is atomic and first-wins; Route
// always reads a consistent boundary table. The empty-index check assumes
// no writer races the first bulk load (see Index.BulkLoad); when that
// cannot be guaranteed, build the router pre-trained with
// NewSampledRouterFromSample.
type SampledRouter struct {
	shards     int
	boundaries atomic.Pointer[[][]byte] // len = shards-1
	untrained  *[][]byte                // the prefix table; boundaries holds it until Train
}

// NewSampledRouter returns a range router for a power-of-two shard count
// that splits by key prefix until Train (or the first bulk load into an
// empty index) installs sampled boundaries.
func NewSampledRouter(shards int) Router {
	r := &SampledRouter{shards: shards}
	b := prefixBoundaries(shards)
	r.untrained = &b
	r.boundaries.Store(&b)
	return r
}

// NewSampledRouterFromSample returns a RouterMaker whose routers are
// pre-trained from sample — for engines whose key distribution is known at
// construction time (e.g. a server preloading a known dataset).
func NewSampledRouterFromSample(sample [][]byte) RouterMaker {
	return func(shards int) Router {
		r := NewSampledRouter(shards).(*SampledRouter)
		r.Train(sample)
		return r
	}
}

// prefixBoundaries returns the untrained table: boundary i is the 8-byte
// big-endian encoding of i<<(64-log2(shards)), trimmed of trailing zero
// bytes. Trimming makes "key ≥ boundary" agree with comparing the key's
// zero-padded 8-byte prefix: a key shorter than the untrimmed boundary
// but equal to its nonzero head must route to the boundary's shard.
func prefixBoundaries(shards int) [][]byte {
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	bounds := make([][]byte, 0, shards-1)
	for i := 1; i < shards; i++ {
		b := binary.BigEndian.AppendUint64(nil, uint64(i)<<(64-bits))
		bounds = append(bounds, bytes.TrimRight(b, "\x00"))
	}
	return bounds
}

// Trained reports whether a sampled boundary table is installed.
func (r *SampledRouter) Trained() bool { return r.boundaries.Load() != r.untrained }

// Train derives the boundary table from sample and installs it, once: the
// first successful Train wins and later calls are no-ops, so concurrent
// loaders converge on one partition. A single-shard router or an empty
// sample trains to the degenerate empty table (everything on shard 0).
func (r *SampledRouter) Train(sample [][]byte) {
	if r.Trained() {
		return
	}
	b := pickBoundaries(sample, r.shards)
	r.boundaries.CompareAndSwap(r.untrained, &b)
}

// pickBoundaries sorts (a strided sample of) keys and returns the shards-1
// quantile keys that split them into equal-count ranges.
func pickBoundaries(keys [][]byte, shards int) [][]byte {
	if shards <= 1 || len(keys) == 0 {
		return [][]byte{}
	}
	stride := 1
	if len(keys) > maxBoundarySample {
		stride = (len(keys) + maxBoundarySample - 1) / maxBoundarySample
	}
	sample := make([][]byte, 0, (len(keys)+stride-1)/stride)
	for i := 0; i < len(keys); i += stride {
		sample = append(sample, keys[i])
	}
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	bounds := make([][]byte, 0, shards-1)
	for s := 1; s < shards; s++ {
		b := sample[s*len(sample)/shards]
		// Boundaries are copied: the table must outlive the caller's sample.
		bounds = append(bounds, append([]byte(nil), b...))
	}
	return bounds
}

// Route returns the number of boundaries ≤ key: keys below the first
// boundary land on shard 0, keys at or above the last on shard n-1.
func (r *SampledRouter) Route(key []byte) int {
	b := *r.boundaries.Load()
	return sort.Search(len(b), func(i int) bool { return bytes.Compare(key, b[i]) < 0 })
}

func (r *SampledRouter) Ordered() bool { return true }
func (r *SampledRouter) Name() string  { return "range" }

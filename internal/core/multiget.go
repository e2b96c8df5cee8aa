package core

import (
	"sync"

	"repro/internal/keys"
)

// Batched lookups as a staged prefetch pipeline. A single Cuckoo Trie lookup
// already enjoys intra-key MLP: every level's candidate buckets are
// computable from the key alone, so the probes of one root-to-leaf descent
// are independent DRAM accesses (§4.4). MultiGet generalizes the argument
// *across* keys: a server draining a pipeline of point lookups has no
// dependencies between requests either. Each key of the batch is a small
// state machine, and every memory access of its descent is issued as a real
// prefetch one round before the round that consumes it (AMAC / group
// prefetching), so a batch has all of its keys' misses in flight together:
//
//	entry     prefetch the caller's key bytes            (all keys)
//	stage     symbols + hash ladder, prefetch the        (all keys)
//	          first probe's two buckets, all lines
//	round r   mgDescend: probe one level; the moment     (each live key,
//	          the child is known prefetch the next        once per round)
//	          probe's buckets — or, at a leaf, decide
//	          an inline key: a mismatch is done; a
//	          match (or a long key) prefetches the
//	          value slot and a long key's chunk
//	          bytes                      → mgVerify
//	          mgVerify: key → value → re-validate the
//	          leaf's bucket version
//
// The prefetches are pure hints: every seqlock check, version re-validation
// and retry decision is the single-key Get's, taken on the consuming round.
// Keys that hit a concurrency conflict (torn read, table resize) fall back
// to the single-key Get, which carries its own retry loop.

// prefetch hints every cache line of bucket b. A 104-byte bucket starts at
// word base = 13b of a 64-byte-aligned array, so it spans two lines, or
// three when it starts past the middle of its first one.
func (t *table) prefetch(b uint64) {
	base := b * bucketWords
	prefetchWord(&t.words[base])
	prefetchWord(&t.words[base+8])
	if base&7 > 3 {
		prefetchWord(&t.words[base+bucketWords-1])
	}
}

// prefetchBytes hints the first and last line of k; the lines between them
// of a long key are a sequential stream the hardware follows by itself.
func prefetchBytes(k []byte) {
	if len(k) > 0 {
		prefetchByte(&k[0])
		prefetchByte(&k[len(k)-1])
	}
}

// mgScratch is MultiGet's reusable per-batch working memory.
type mgScratch struct {
	states []mgState
	syms   []byte
	hashes []uint64
}

var mgScratchPool = sync.Pool{New: func() any { return new(mgScratch) }}

// Stages of one key's descent; a key is live while its stage is below
// mgDone.
const (
	mgDescend = iota // next probe's buckets are prefetched
	mgVerify         // leaf reached, its value slot (and long key) prefetched
	mgDone           // vals/found are final
	mgRetry          // conflict: resolve via single-key Get at the end
)

// mgState tracks one key's in-flight descent. The current node is carried as
// the raw words Get carries: word 0, word 1, and the bucket and version they
// were read under.
type mgState struct {
	syms        []byte
	hashes      []uint64 // hashes[i] = H(syms[:i]) under the current table
	w0, w1      uint64
	bucket, ver uint64
	depth       int // the node's name length, and the next symbol to consume
	stage       uint8
}

// prefetchNextProbe hints the buckets of the next child this key will fetch:
// for a regular node that is the next symbol's extension; for a jump node it
// is the hash at the jump's end, since the intermediate symbols are compared
// in-entry without probing.
func (st *mgState) prefetchNextProbe(t *table) {
	at := st.depth + 1
	if rawKind(st.w0) == kindJump {
		at = st.depth + rawJumpLen(st.w0)
	}
	if at < len(st.hashes) {
		b1, b2, _ := t.bucketsOf(st.hashes[at])
		t.prefetch(b1)
		t.prefetch(b2)
	}
}

// MultiGet looks up a batch of keys, overlapping the independent memory
// accesses of all descents. vals and found must each have at least len(ks)
// elements.
func (tr *Trie) MultiGet(ks [][]byte, vals []uint64, found []bool) {
	n := len(ks)
	if n == 0 {
		return
	}
	if n == 1 {
		vals[0], found[0] = tr.Get(ks[0])
		return
	}
	t := tr.tbl.Load()
	rw0, rw1, _, rb, _, rver, rok := tr.rootNode(t)

	// Flat per-batch scratch, pooled so the steady-state batch path is
	// allocation-free: the states, the symbol expansions, and the hash
	// ladders live in three buffers sliced per key.
	totalSyms := 0
	for j := 0; j < n; j++ {
		if len(ks[j]) <= MaxKeyLen {
			prefetchBytes(ks[j])
			totalSyms += keys.NumSymbols(ks[j])
		}
	}
	sc := mgScratchPool.Get().(*mgScratch)
	defer mgScratchPool.Put(sc)
	if cap(sc.states) < n {
		sc.states = make([]mgState, n)
	}
	if cap(sc.syms) < totalSyms {
		sc.syms = make([]byte, 0, totalSyms)
	}
	if cap(sc.hashes) < totalSyms+n {
		sc.hashes = make([]uint64, 0, totalSyms+n)
	}
	states := sc.states[:n]
	symBuf := sc.syms[:0]
	hashBuf := sc.hashes[:0]

	active := 0
	for j := 0; j < n; j++ {
		st := &states[j]
		*st = mgState{} // pooled memory: clear the previous batch's state
		if len(ks[j]) > MaxKeyLen {
			vals[j], found[j] = 0, false
			st.stage = mgDone
			continue
		}
		if !rok {
			st.stage = mgRetry
			continue
		}
		// Symbols and the whole hash ladder, computed before any probe
		// resolves, so every level's bucket addresses are known up front.
		lo := len(symBuf)
		symBuf = keys.AppendSymbols(symBuf, ks[j])
		st.syms = symBuf[lo:len(symBuf):len(symBuf)]
		hlo := len(hashBuf)
		hashBuf = append(hashBuf, 0)
		h := uint64(0)
		for _, s := range st.syms {
			h = t.step(h, s)
			hashBuf = append(hashBuf, h)
		}
		st.hashes = hashBuf[hlo:len(hashBuf):len(hashBuf)]
		st.w0, st.w1, st.bucket, st.ver = rw0, rw1, rb, rver
		st.prefetchNextProbe(t)
		active++
	}

	for active > 0 {
		for j := range states {
			st := &states[j]
			switch st.stage {
			case mgDescend:
				tr.mgAdvance(t, st, ks[j], vals, found, j)
			case mgVerify:
				tr.mgVerify(t, st, ks[j], vals, found, j)
			default:
				continue
			}
			if st.stage >= mgDone {
				active--
			}
		}
	}

	for j := range states {
		if states[j].stage == mgRetry {
			vals[j], found[j] = tr.Get(ks[j])
		}
	}
}

// mgAdvance performs one probe step of key j's descent: it matches in-entry
// jump symbols without memory accesses, then fetches exactly one child (or
// reaches a terminal miss) and prefetches what the next round will read.
// At a leaf holding a different inline key the lookup ends there, as Get's
// does. Conflicts mark the key for single-Get retry.
func (tr *Trie) mgAdvance(t *table, st *mgState, k []byte, vals []uint64, found []bool, j int) {
	at, m := matchNode(st.w0, st.w1, st.depth, st.syms)
	switch m {
	case nodeMiss:
		vals[j], found[j] = 0, false
		st.stage = mgDone
		return
	case nodeTorn:
		st.stage = mgRetry
		return
	}
	w0, w1, _, b, _, ver, ok := t.childOf(st.w0, st.bucket, st.ver, st.hashes[at+1], st.syms[at])
	if !ok {
		st.stage = mgRetry
		return
	}
	st.w0, st.w1, st.bucket, st.ver, st.depth = w0, w1, b, ver, at+1
	if rawKind(w0) != kindLeaf {
		st.prefetchNextProbe(t)
		return
	}
	if rawKeyCode(w0) != 0 && !tr.recs.leafKeyIs(w0, w1, k) {
		vals[j], found[j] = 0, false
		st.stage = mgDone
		return
	}
	tr.recs.prefetchRecord(w0, w1)
	st.stage = mgVerify
}

// mgVerify is the leaf's last stage, the single-key Get's leafValue.
func (tr *Trie) mgVerify(t *table, st *mgState, k []byte, vals []uint64, found []bool, j int) {
	val, hit, ok := tr.leafValue(t, st.w0, st.w1, st.bucket, st.ver, k)
	if !ok {
		st.stage = mgRetry
		return
	}
	vals[j], found[j] = val, hit
	st.stage = mgDone
}

// MultiSet inserts or updates a batch of keys. Writes mutate shared buckets,
// so they execute sequentially; the batch form exists for interface symmetry
// and single-call convenience. errs, when non-nil, receives per-key errors;
// the return value counts newly added keys.
func (tr *Trie) MultiSet(ks [][]byte, vals []uint64, errs []error) int {
	added := 0
	for i, k := range ks {
		a, err := tr.Set(k, vals[i])
		if errs != nil {
			errs[i] = err
		}
		if err == nil && a {
			added++
		}
	}
	return added
}

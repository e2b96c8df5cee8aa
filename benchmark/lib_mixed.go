package main

// lib_mixed_sharded: the same engine used differently. Two goroutines drive a
// 2-shard sampled-router index with zipfian reads and updates, fresh inserts
// that make the tables grow, deletes and ordered cursor scans — so a
// read-path gain bought with slower inserts, resizes or cursors shows here.
// It is the only workload where sharded routing and the trie's seqlock and
// bucket-lock paths run under real concurrency.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/sharded"
)

const (
	// mxKeys are loaded before the run and train the sampled router. Where a
	// table resizes is chaotic — the first failed cuckoo insert, anywhere
	// from load factor 0.52 to 0.72 depending on insertion order, which two
	// goroutines do not repeat — so the count keeps every repetition clear
	// of that band: 168k keys per shard fill the 64k-bucket table the
	// CapacityHint buys to 0.80, so the bulk load trips exactly one resize
	// per shard (resize.go runs inside setup_s), and the run's inserts then
	// take the doubled tables from load factor 0.40 to 0.50.
	mxKeys    = 336_000
	mxWorkers = 2
	// mxOpsPerSec is the calibrated per-worker op rate.
	mxOpsPerSec = 180_000
	mxScanLen   = 50
	mxLatEvery  = 8 // one op in 8 is timed: two clock reads cost ~5% of a Get
)

const (
	opGet = iota
	opUpdate
	opInsert
	opDelete
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "set_update", "set_insert", "delete", "cursor"}

// mxStream is one worker's pre-generated op stream. For get/update/scan idx
// is a loaded key; for insert/delete it counts up the worker's own fresh-key
// space, deletes trailing inserts, so every reply is exactly predictable.
type mxStream struct {
	kinds []uint8
	idx   []uint32
}

func genMixed(seed uint64, worker, ops int, z *zipf) mxStream {
	r := newRNG(seed ^ uint64(0x6d78+worker)<<32)
	s := mxStream{kinds: make([]uint8, ops), idx: make([]uint32, ops)}
	var inserted, deleted uint32
	for i := range s.kinds {
		p := r.intn(100)
		switch {
		case p < 40:
			s.kinds[i], s.idx[i] = opGet, z.rank(r)
		case p < 70:
			s.kinds[i], s.idx[i] = opUpdate, z.rank(r)
		case p < 90 && (p < 85 || deleted == inserted):
			// 15% inserts, plus any delete drawn while nothing is left to
			// delete.
			s.kinds[i], s.idx[i] = opInsert, inserted
			inserted++
		case p < 90:
			s.kinds[i], s.idx[i] = opDelete, deleted
			deleted++
		default:
			s.kinds[i], s.idx[i] = opScan, z.rank(r)
		}
	}
	return s
}

type mxRun struct {
	ks      keySpace
	keys    [][]byte
	vals    []uint64
	streams [mxWorkers]mxStream
	ix      *sharded.Index
	shards  []*cuckootrie.Trie // the tries behind ix, for Stats
	// buckets0 is the shards' total bucket count as built, before the load.
	buckets0 uint64
}

func trieFactory(capture *[]*cuckootrie.Trie) func(int) index.Index {
	return func(c int) index.Index {
		t := cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
		if capture != nil {
			*capture = append(*capture, t)
		}
		return t
	}
}

func (m *mxRun) build() error {
	m.shards = nil
	m.ix = sharded.NewWithRouter(mxWorkers, len(m.keys), trieFactory(&m.shards), sharded.NewSampledRouter)
	m.buckets0 = 0
	for _, t := range m.shards {
		m.buckets0 += t.Stats().Buckets
	}
	added, err := m.ix.BulkLoad(m.keys, m.vals)
	if err != nil || added != len(m.keys) {
		return fmt.Errorf("bulk load: added %d of %d keys: %v", added, len(m.keys), err)
	}
	return nil
}

func runLibMixed(c *runCtx) (*result, error) {
	n := c.keyCount(mxKeys)
	ops := c.scaled(mxOpsPerSec, 1000)
	warm := ops / 10
	m := &mxRun{ks: newKeySpace(c.seed)}
	m.keys = m.ks.loaded(n)
	m.vals = make([]uint64, n)
	for i := range m.vals {
		m.vals[i] = valueOf(uint32(i), 0)
	}
	z := newZipf(n, 0.99)
	res := &result{Metrics: map[string]float64{}}
	var d digest
	for g := range m.streams {
		m.streams[g] = genMixed(c.seed, g, warm+ops, z)
		d.addOps(m.streams[g].kinds, m.streams[g].idx)
	}
	res.Digest = uint64(d)

	ctl, err := newControl(c, m.ks)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return m.traced(c, res, ctl, warm, ops)
	}

	// Every repetition builds a fresh index while the earlier ones stay
	// reachable, so each lands on memory of its own.
	var reps []repStats
	var placements []*sharded.Index
	for i := 0; i < c.reps(); i++ {
		var rep repStats
		heap0 := heapAfterGC()
		t0 := time.Now()
		if err := m.build(); err != nil {
			return nil, err
		}
		rep.setupS = time.Since(t0).Seconds()
		m.phase(0, warm, nil)
		cpu0 := selfCPUSeconds()
		ws := m.phase(warm, ops, nil)
		cpu := selfCPUSeconds() - cpu0
		m.checkLen(warm+ops, ws[0])
		rep.memB = float64(heapAfterGC()-heap0) / float64(m.ix.Len())
		rep.measured(c, ws)
		rep.cpuUS = cpu * 1e6 / float64(res.tally(ws))
		reps = append(reps, rep)
		placements = append(placements, m.ix)
	}
	// Both heap readings of every repetition saw the same other objects.
	runtime.KeepAlive(m)
	runtime.KeepAlive(placements)
	res.report(reps)
	ctl.finish(c, res)
	return res, nil
}

// traced is the traced run: one repetition with spans on in every other
// slice, then the sharded-vs-bare and core replays.
func (m *mxRun) traced(c *runCtx, res *result, ctl *control, warm, ops int) (*result, error) {
	t0 := time.Now()
	if err := m.build(); err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()
	buckets0 := m.buckets0
	m.phase(0, warm, nil)
	epoch := time.Now()
	var sbs [mxWorkers]*spanBuf
	for g := range sbs {
		sbs[g] = newSpanBuf(epoch, g)
	}
	ws := m.phase(warm, ops, sbs[:])
	m.checkLen(warm+ops, ws[0])
	res.tally(ws)
	lm := res.Metrics
	lm["trace.overhead_frac"] = traceOverhead(ws)
	totals := summarize(mergeSpans(sbs[:]...))
	var inLayer time.Duration
	for name, t := range totals {
		if name != "request" {
			inLayer += t.Total
		}
	}
	if req := totals["request"]; req != nil && req.Total > 0 {
		lm["trace.layer_share_of_request"] = float64(inLayer) / float64(req.Total)
	}
	lm["core.bulkload_keys_per_s"] = float64(len(m.keys)) / setupS

	rp, root, done := beginReplay(epoch, mxWorkers)
	if err := m.replays(c, rp, root, buckets0, lm); err != nil {
		return nil, err
	}
	done()

	ctl.finish(c, res)
	return res, finishTrace(c, res, append(sbs[:], rp)...)
}

// phase runs ops [first, first+count) of every worker's stream, one
// goroutine per worker, and returns their stats.
func (m *mxRun) phase(first, count int, sbs []*spanBuf) []*workerStats {
	ws := make([]*workerStats, mxWorkers)
	var wg sync.WaitGroup
	for g := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb *spanBuf
			if sbs != nil {
				sb = sbs[g]
			}
			ws[g] = m.worker(g, first, count, sb)
		}()
	}
	wg.Wait()
	return ws
}

func (m *mxRun) worker(g, first, count int, sb *spanBuf) *workerStats {
	ws := newWorkerStats(count, mxLatEvery)
	st := m.streams[g]
	var kb [keyLen]byte
	for i := 0; i < count; i++ {
		ws.mark(i)
		seq := first + i
		kind, id := st.kinds[seq], st.idx[seq]
		timedOp := i%mxLatEvery == 0
		var t0 time.Time
		if timedOp {
			t0 = time.Now()
		}
		ok := true
		switch kind {
		case opGet:
			v, found := m.ix.Get(m.keys[id])
			ok = found && valueMatches(v, id)
		case opUpdate:
			added, err := m.ix.Set(m.keys[id], valueOf(id, seq))
			ok = err == nil && !added
		case opInsert:
			m.ks.put(kb[:], spaceFresh+uint64(g), uint64(id))
			added, err := m.ix.Set(kb[:], valueOf(id, 0))
			ok = err == nil && added
		case opDelete:
			m.ks.put(kb[:], spaceFresh+uint64(g), uint64(id))
			ok = m.ix.Delete(kb[:])
		case opScan:
			ok = scanFrom(m.ix, m.keys[id]) > 0
		}
		if timedOp {
			t1 := time.Now()
			ws.lat = append(ws.lat, int64(t1.Sub(t0)))
			if sb != nil && i%(mxLatEvery*traceSample) == 0 && ws.tracedSlice() {
				// One timed op in traceSample is recorded. A library call
				// is the whole request: the two spans coincide and the
				// trace only splits time by op kind.
				req := sb.add(0, int64(seq), "request", t0, t1)
				sb.add(req, int64(seq), "sharded."+opNames[kind], t0, t1)
			}
		}
		if !ok {
			ws.failed++
		}
		ws.ops++
	}
	ws.mark(count)
	return ws
}

// scanFrom opens a cursor at start — a loaded key, which is never deleted —
// and walks mxScanLen keys, checking that the first key is start and that
// keys ascend. It returns the keys visited, or 0 on a violation.
func scanFrom(ix index.Index, start []byte) int {
	c := ix.NewCursor()
	defer c.Close()
	if !c.Seek(start) || !bytes.Equal(c.Key(), start) {
		return 0
	}
	prev := binary.BigEndian.Uint64(start)
	n := 1
	for ; n <= mxScanLen && c.Next(); n++ {
		k := c.Key()
		if len(k) != keyLen {
			return 0
		}
		cur := binary.BigEndian.Uint64(k)
		if cur <= prev {
			return 0
		}
		prev = cur
	}
	return n
}

// checkLen compares the final key count with the count the op streams imply
// and charges any difference to ws as failed ops.
func (m *mxRun) checkLen(executed int, ws *workerStats) {
	want := len(m.keys)
	for _, st := range m.streams {
		for _, k := range st.kinds[:executed] {
			switch k {
			case opInsert:
				want++
			case opDelete:
				want--
			}
		}
	}
	if diff := m.ix.Len() - want; diff != 0 {
		ws.failed += int64(max(diff, -diff))
	}
}

// replays measures sharded as "wrapper minus bare engine on the same ops":
// a fresh sharded index and a fresh bare trie are loaded with the workload's
// keys, and worker 0's recorded ops of each kind run through both.
func (m *mxRun) replays(c *runCtx, rp *spanBuf, root uint32, buckets0 uint64, lm map[string]float64) error {
	endState := m.ix
	var bucketsEnd uint64
	for _, t := range m.shards {
		bucketsEnd += t.Stats().Buckets
	}
	lens := endState.ShardLens()
	maxLen, sum := 0, 0
	for _, l := range lens {
		maxLen, sum = max(maxLen, l), sum+l
	}
	lm["sharded.balance_max_mean"] = float64(maxLen) * float64(len(lens)) / float64(sum)

	dir, err := os.MkdirTemp(c.workDir, "snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var saveErr error
	ns := timed(rp, root, "replay.persist.snapshot", func() { _, saveErr = persist.SaveIndex(dir, 0, endState) })
	if saveErr != nil {
		return fmt.Errorf("SaveIndex: %w", saveErr)
	}
	lm["persist.snapshot_keys_per_s"] = float64(endState.Len()) / (ns / 1e9)
	snap, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snap) != 1 {
		return fmt.Errorf("SaveIndex left %d snapshot files", len(snap))
	}

	// Fresh copies at the loaded state, so both sides hold the same keys.
	if err := m.build(); err != nil {
		return err
	}
	bare := cuckootrie.New(cuckootrie.Config{CapacityHint: len(m.keys), AutoResize: true})
	bareBuckets0 := bare.Stats().Buckets
	if added, err := index.BulkLoad(bare, m.keys, m.vals); err != nil || added != len(m.keys) {
		return fmt.Errorf("bare bulk load: added %d: %v", added, err)
	}

	byKind := func(kind uint8, limit int) (keys [][]byte, idx []uint32) {
		st := m.streams[0]
		for i, k := range st.kinds {
			if k == kind && len(keys) < limit {
				keys, idx = append(keys, m.keys[st.idx[i]]), append(idx, st.idx[i])
			}
		}
		return keys, idx
	}
	both := func(name string, fn func(ix index.Index)) (overheadNS float64) {
		b := timed(rp, root, "replay.core."+name, func() { fn(bare) })
		s := timed(rp, root, "replay.sharded."+name, func() { fn(m.ix) })
		return s - b
	}
	var sink uint64
	gets, _ := byKind(opGet, replayProbes)
	lm["sharded.get_overhead_ns_per_op"] = both("get", func(ix index.Index) {
		for _, k := range gets {
			v, _ := ix.Get(k)
			sink += v
		}
	}) / float64(len(gets))
	upd, updIdx := byKind(opUpdate, replayWrites)
	lm["sharded.set_overhead_ns_per_op"] = both("set_update", func(ix index.Index) {
		for i, k := range upd {
			ix.Set(k, valueOf(updIdx[i], i))
		}
	}) / float64(len(upd))
	mv, mf := make([]uint64, 64), make([]bool, 64)
	lm["sharded.multiget64_overhead_ns_per_key"] = both("multiget64", func(ix index.Index) {
		for i := 0; i+64 <= len(gets); i += 64 {
			ix.MultiGet(gets[i:i+64], mv, mf)
		}
	}) / float64(len(gets)/64*64)
	scans, _ := byKind(opScan, replayWrites/10)
	visited := 0
	lm["sharded.cursor_overhead_ns_per_key"] = both("cursor", func(ix index.Index) {
		visited = 0
		for _, k := range scans {
			visited += scanFrom(ix, k)
		}
	}) / float64(max(visited, 1))
	_ = sink

	replayCoreReads(rp, root, bare, m.keys, lm)
	coreShape(bare, m.keys, bareBuckets0, lm)
	replayCoreWrites(rp, root, bare, m.ks, m.keys, lm)
	// Growth is the workload's own: how far its load and inserts grew the
	// shards from the size their CapacityHint bought.
	lm["core.table_growth_x"] = float64(bucketsEnd) / float64(buckets0)
	return nil
}

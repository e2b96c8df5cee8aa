package sharded_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	cuckootrie "repro"
	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/hot"
	"repro/internal/index"
	"repro/internal/index/indextest"
	"repro/internal/sharded"
	"repro/internal/skiplist"
	"repro/internal/wormhole"
)

// factories lists every scan-capable engine the registry can shard.
func factories() map[string]func(capacity int) index.Index {
	return map[string]func(capacity int) index.Index{
		"CuckooTrie": func(c int) index.Index {
			return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
		},
		"ARTOLC":   func(c int) index.Index { return art.New() },
		"HOT":      func(c int) index.Index { return hot.New() },
		"Wormhole": func(c int) index.Index { return wormhole.New() },
		"STX":      func(c int) index.Index { return btree.New() },
		"SkipList": func(c int) index.Index { return skiplist.New(3) },
	}
}

// TestConformanceSharded runs the full API v2 conformance suite against a
// 4-shard variant of every engine: point ops, batch scatter-gather, and —
// via the suite's ScanOrder/CursorOrder cases — globally sorted iteration
// across shard boundaries.
func TestConformanceSharded(t *testing.T) {
	for name, mk := range factories() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			indextest.Run(t, func(c int) index.Index {
				return sharded.New(4, c, mk)
			}, indextest.Options{})
		})
	}
}

// TestConformanceShardedRange runs the same suite with the untrained range
// router: ordered iteration comes from the chain cursor instead of the
// k-way merge, and the prefix split is skewed for any non-uniform key
// distribution — correctness must not depend on balance.
func TestConformanceShardedRange(t *testing.T) {
	for name, mk := range factories() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			indextest.Run(t, func(c int) index.Index {
				return sharded.NewWithRouter(4, c, mk, sharded.NewSampledRouter)
			}, indextest.Options{})
		})
	}
}

// sampledTestRouter returns a RouterMaker pre-trained on indextest's key
// distribution (random 1–20-byte keys), so the conformance suite runs over
// quantile boundaries rather than the prefix split.
func sampledTestRouter() sharded.RouterMaker {
	rng := rand.New(rand.NewSource(99))
	sample := make([][]byte, 1024)
	for i := range sample {
		k := make([]byte, 1+rng.Intn(20))
		rng.Read(k)
		sample[i] = k
	}
	return sharded.NewSampledRouterFromSample(sample)
}

// TestConformanceShardedSampled runs the full suite with the sampled
// router: ordered iteration rides the chain cursor over sample-derived
// boundaries. Every engine runs with a pre-trained router; CuckooTrie also
// runs with an UNTRAINED router (the RouterByName "range" mode), where
// incremental construction uses the prefix split and the suite's BulkLoad
// case covers train-on-first-load equivalence.
func TestConformanceShardedSampled(t *testing.T) {
	for name, mk := range factories() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			indextest.Run(t, func(c int) index.Index {
				return sharded.NewWithRouter(4, c, mk, sampledTestRouter())
			}, indextest.Options{})
		})
	}
	t.Run("CuckooTrie-untrained", func(t *testing.T) {
		indextest.Run(t, func(c int) index.Index {
			return sharded.NewWithRouter(4, c, factories()["CuckooTrie"], sharded.NewSampledRouter)
		}, indextest.Options{})
	})
}

// TestRouterByName: every registered routing mode resolves, reports its
// own name, and unknown modes fail.
func TestRouterByName(t *testing.T) {
	for _, name := range []string{"hash", "range"} {
		mk, ok := sharded.RouterByName(name)
		if !ok {
			t.Fatalf("RouterByName(%q) not resolved", name)
		}
		if got := mk(4).Name(); got != name {
			t.Fatalf("RouterByName(%q).Name() = %q", name, got)
		}
	}
	for _, name := range []string{"sampled", "nope"} {
		if _, ok := sharded.RouterByName(name); ok {
			t.Fatalf("RouterByName resolved the unknown mode %q", name)
		}
	}
}

// prefixShard is the prefix split an untrained range router must
// reproduce: the top log2(shards) bits of the key's first 8 bytes,
// zero-padded.
func prefixShard(key []byte, shards int) int {
	bits := 0
	for 1<<bits < shards {
		bits++
	}
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(key) {
			p |= uint64(key[i])
		}
	}
	return int(p >> (64 - bits)) // bits == 0: shard 0
}

// TestUntrainedRouterIsPrefixSplit: before training, the range router
// routes every key by its zero-padded 8-byte prefix. Keys shorter than a
// boundary and keys ending in zero bytes are where an untrimmed boundary
// table would disagree.
func TestUntrainedRouterIsPrefixSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := [][]byte{nil, {}, {0x00}, {0x80}, {0x80, 0x00}, {0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for i := 0; i < 20000; i++ {
		k := make([]byte, rng.Intn(13))
		rng.Read(k)
		if len(k) > 0 && i%2 == 0 {
			k[len(k)-1] = 0x00
		}
		if len(k) > 0 && i%3 == 0 {
			k[0] &= 0xf0 // land on and next to the boundaries of every split
		}
		keys = append(keys, k)
	}
	for shards := 1; shards <= 16; shards *= 2 {
		r := sharded.NewSampledRouter(shards)
		for _, k := range keys {
			if got, want := r.Route(k), prefixShard(k, shards); got != want {
				t.Fatalf("%d shards: Route(%x) = %d, prefix split says %d", shards, k, got, want)
			}
		}
	}
}

// TestRangeRouterBalanceBySet: a range-routed index filled only by Set,
// never trained, still spreads uniform keys over every shard.
func TestRangeRouterBalanceBySet(t *testing.T) {
	const shards, n = 4, 10000
	ix := sharded.NewWithRouter(shards, n, factories()["SkipList"], sharded.NewSampledRouter)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		k := make([]byte, 8)
		rng.Read(k)
		if _, err := ix.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for s, l := range ix.ShardLens() {
		if l < n*15/100 {
			t.Fatalf("shard %d holds %d of %d keys, want ≥ 15%% (lens %v)", s, l, ix.Len(), ix.ShardLens())
		}
	}
}

// TestConformanceShardCounts sweeps shard counts (including the degenerate
// single shard and a non-power-of-two request) on one engine.
func TestConformanceShardCounts(t *testing.T) {
	mk := factories()["CuckooTrie"]
	for _, shards := range []int{1, 2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("x%d", shards), func(t *testing.T) {
			indextest.Run(t, func(c int) index.Index {
				return sharded.New(shards, c, mk)
			}, indextest.Options{})
		})
	}
}

func TestShardCountRounding(t *testing.T) {
	mk := factories()["SkipList"]
	for _, tc := range []struct{ req, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := sharded.New(tc.req, 64, mk).Shards(); got != tc.want {
			t.Fatalf("New(%d).Shards() = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// TestCursorAcrossShards proves globally sorted iteration across shard
// boundaries: with 8 shards each holding a hash slice of the keyspace, a
// full cursor walk must visit every key exactly once in ascending order,
// with key runs genuinely alternating between shards.
func TestCursorAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := sharded.New(8, 1<<12, factories()["SkipList"])
	model := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(16))
		rng.Read(k)
		model[string(k)] = uint64(i)
		if _, err := ix.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)

	c := ix.NewCursor()
	defer c.Close()
	i := 0
	var prev []byte
	for ok := c.Seek(nil); ok; ok = c.Next() {
		if i >= len(want) {
			t.Fatalf("cursor visited more than %d keys", len(want))
		}
		if string(c.Key()) != want[i] || c.Value() != model[want[i]] {
			t.Fatalf("cursor[%d] = %x=%d, want %x=%d",
				i, c.Key(), c.Value(), want[i], model[want[i]])
		}
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatalf("cursor disorder at %d: %x after %x", i, c.Key(), prev)
		}
		prev = append(prev[:0], c.Key()...)
		i++
	}
	if i != len(want) {
		t.Fatalf("cursor visited %d keys, want %d", i, len(want))
	}
	// Mid-stream seek lands on the global successor regardless of shard.
	mid := []byte(want[len(want)/2])
	if !c.Seek(mid) || !bytes.Equal(c.Key(), mid) {
		t.Fatalf("Seek(%x) landed on %x", mid, c.Key())
	}
	if !c.Next() || string(c.Key()) != want[len(want)/2+1] {
		t.Fatalf("Next after mid-seek = %x, want %x", c.Key(), want[len(want)/2+1])
	}
}

// TestScatterGatherOrder checks that MultiGet/MultiSet results come back at
// the caller's positions with batches big enough to take the parallel path,
// including duplicate and missing keys.
func TestScatterGatherOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ix := sharded.New(4, 1<<12, factories()["CuckooTrie"])
	n := 4096
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
		vals[i] = uint64(i) * 3
	}
	errs := make([]error, n)
	if added := ix.MultiSet(keys, vals, errs); added != n {
		t.Fatalf("MultiSet added %d, want %d", added, n)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	// Shuffled batch with duplicates and misses.
	batch := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 4:
			batch = append(batch, []byte(fmt.Sprintf("missing-%d", i)))
		case 3:
			batch = append(batch, batch[rng.Intn(len(batch))])
		default:
			batch = append(batch, keys[rng.Intn(n)])
		}
	}
	got := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	ix.MultiGet(batch, got, found)
	for i, k := range batch {
		if bytes.HasPrefix(k, []byte("missing-")) {
			if found[i] {
				t.Fatalf("found[%d] for missing key %s", i, k)
			}
			continue
		}
		var want uint64
		fmt.Sscanf(string(k), "key-%d", &want)
		if !found[i] || got[i] != want*3 {
			t.Fatalf("MultiGet[%d] (%s) = %d,%v want %d", i, k, got[i], found[i], want*3)
		}
	}
}

// TestConcurrentBatches hammers one sharded index from many goroutines —
// the pooled scratch and worker write-back must be race-free (run under
// -race in CI).
func TestConcurrentBatches(t *testing.T) {
	ix := sharded.New(4, 1<<14, factories()["CuckooTrie"])
	if !ix.ConcurrentSafe() {
		t.Fatal("sharded CuckooTrie should be concurrent-safe")
	}
	n := 8192
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ck-%06d", i))
		vals[i] = uint64(i)
	}
	ix.MultiSet(keys, vals, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			batch := make([][]byte, 256)
			got := make([]uint64, len(batch))
			found := make([]bool, len(batch))
			for it := 0; it < 30; it++ {
				for j := range batch {
					batch[j] = keys[rng.Intn(n)]
				}
				if g%2 == 0 {
					ix.MultiGet(batch, got, found)
					for j := range batch {
						if !found[j] {
							t.Errorf("goroutine %d: missed loaded key %s", g, batch[j])
							return
						}
					}
				} else {
					ix.MultiSet(batch, got, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ix.Len(); got != n {
		t.Fatalf("Len = %d after concurrent churn, want %d", got, n)
	}
}

// TestNonConcurrentInnerNotMarked: sharding does not make a single-threaded
// engine safe for concurrent callers (two callers can hit one shard).
func TestNonConcurrentInnerNotMarked(t *testing.T) {
	ix := sharded.New(4, 64, factories()["STX"])
	if index.IsConcurrent(ix) {
		t.Fatal("sharded STX must not report concurrent-safe")
	}
}

// cursorSpy wraps an inner index and counts NewCursor calls, so tests can
// observe exactly which shards an ordered operation touched.
type cursorSpy struct {
	index.Index
	opens *int32
}

func (s cursorSpy) NewCursor() index.Cursor {
	atomic.AddInt32(s.opens, 1)
	return s.Index.NewCursor()
}

// spyFactory builds a sharded index whose shards count their cursor opens
// (opens[i] = NewCursor calls on shard i, in factory-call order).
func spyFactory(t *testing.T, shards int, mk sharded.RouterMaker) (*sharded.Index, []int32) {
	t.Helper()
	opens := make([]int32, shards)
	next := 0
	inner := factories()["SkipList"]
	ix := sharded.NewWithRouter(shards, 1<<10, func(c int) index.Index {
		s := cursorSpy{inner(c), &opens[next]}
		next++
		return s
	}, mk)
	if ix.Shards() != shards {
		t.Fatalf("built %d shards, want %d", ix.Shards(), shards)
	}
	return ix, opens
}

// TestRangeScanSingleShardBypass is the acceptance test for the range
// router's scan fast path: a Scan whose range is served entirely by one
// shard must open ONLY that shard's cursor — no k-way merge over all
// shards — while the hash router (key order scattered across shards) must
// still open every shard's cursor for the same scan.
func TestRangeScanSingleShardBypass(t *testing.T) {
	// 4 range shards partition on the top 2 bits of the first byte:
	// [0x00,0x40) → 0, [0x40,0x80) → 1, [0x80,0xc0) → 2, [0xc0,∞) → 3.
	ix, opens := spyFactory(t, 4, sharded.NewSampledRouter)
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			k := []byte{byte(b), byte(j)}
			if _, err := ix.Set(k, uint64(b*4+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A 10-key scan starting at 0x50...: every visited key has first byte
	// in [0x50, 0x53], all inside shard 1.
	var got [][]byte
	n := ix.Scan([]byte{0x50}, 10, func(k []byte, v uint64) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if n != 10 {
		t.Fatalf("scan visited %d keys, want 10", n)
	}
	for i, k := range got {
		want := []byte{byte(0x50 + i/4), byte(i % 4)}
		if !bytes.Equal(k, want) {
			t.Fatalf("scan[%d] = %x, want %x", i, k, want)
		}
	}
	for s, o := range opens {
		want := int32(0)
		if s == 1 {
			want = 1
		}
		if o != want {
			t.Fatalf("shard %d: %d cursor opens, want %d (opens = %v)", s, o, want, opens)
		}
	}

	// A scan crossing the shard-1/shard-2 boundary opens exactly the two
	// shards it reaches, in order — still no merge over all four.
	var crossed []byte
	ix.Scan([]byte{0x7f, 0x03}, 2, func(k []byte, v uint64) bool {
		crossed = append(crossed, k[0])
		return true
	})
	if !bytes.Equal(crossed, []byte{0x7f, 0x80}) {
		t.Fatalf("boundary scan first bytes = %x, want 7f80", crossed)
	}
	if opens[0] != 0 || opens[3] != 0 {
		t.Fatalf("boundary scan touched uninvolved shards: opens = %v", opens)
	}

	// Contrast: the hash router scatters key order, so the same single-
	// shard-range scan must consult every shard.
	hx, hopens := spyFactory(t, 4, sharded.NewHashRouter)
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			if _, err := hx.Set([]byte{byte(b), byte(j)}, uint64(b*4+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	hx.Scan([]byte{0x50}, 10, func(k []byte, v uint64) bool { return true })
	for s, o := range hopens {
		if o != 1 {
			t.Fatalf("hash router shard %d: %d cursor opens, want 1", s, o)
		}
	}
}

// maxMeanRatio is the balance figure the bench tables report: the largest
// shard's key count over the mean. 1.0 is perfect balance; the shard count
// is the worst case (everything on one shard).
func maxMeanRatio(lens []int) float64 {
	total, max := 0, 0
	for _, l := range lens {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(lens)))
}

// TestSampledRouterBalanceSkewed is the balance acceptance test: on the
// skewed datasets (az keys share a long "B..." prefix; reddit usernames
// cluster in the lowercase range), the untrained range router's prefix
// split piles Set-loaded keys onto a hot shard (max/mean well above 1.25
// at 8 shards), while the same router trained by a BulkLoad into the empty
// index must keep max/mean ≤ 1.25 — order-preserving routing without the
// hot shard.
func TestSampledRouterBalanceSkewed(t *testing.T) {
	const shards = 8
	for _, ds := range []dataset.Name{dataset.AZ, dataset.Reddit} {
		ds := ds
		t.Run(string(ds), func(t *testing.T) {
			keys := dataset.Generate(ds, 20_000, 1)
			vals := make([]uint64, len(keys))
			for i := range vals {
				vals[i] = uint64(i)
			}
			newIndex := func() *sharded.Index {
				return sharded.NewWithRouter(shards, len(keys), factories()["SkipList"], sharded.NewSampledRouter)
			}
			untrained := newIndex()
			for i, k := range keys {
				if _, err := untrained.Set(k, vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			trained := newIndex()
			if _, err := trained.BulkLoad(keys, vals); err != nil {
				t.Fatal(err)
			}
			if !trained.Router().(*sharded.SampledRouter).Trained() {
				t.Fatal("BulkLoad into an empty index did not train the router")
			}
			prefix := maxMeanRatio(untrained.ShardLens())
			sampled := maxMeanRatio(trained.ShardLens())
			if prefix <= 1.25 {
				t.Fatalf("prefix split balanced %s (max/mean %.2f) — dataset not skewed enough to prove anything", ds, prefix)
			}
			if sampled > 1.25 {
				t.Fatalf("trained router max/mean = %.2f on %s, want <= 1.25 (prefix: %.2f)", sampled, ds, prefix)
			}
			t.Logf("%s at %d shards: prefix max/mean %.2f, trained %.2f", ds, shards, prefix, sampled)
		})
	}
}

// TestSampledScanSingleShardBypass: the chain cursor's single-shard scan
// fast path must survive the router swap — under a trained sampled router,
// a scan whose range lives inside one sampled boundary interval opens ONLY
// that shard's cursor, exactly like the prefix split's bypass.
func TestSampledScanSingleShardBypass(t *testing.T) {
	// Train on the exact key population: 1024 two-byte keys, so the 4-shard
	// quantile boundaries are {0x40,0x00}, {0x80,0x00}, {0xc0,0x00} and
	// shard 1 owns first bytes 0x40..0x7f.
	var sample [][]byte
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			sample = append(sample, []byte{byte(b), byte(j)})
		}
	}
	ix, opens := spyFactory(t, 4, sharded.NewSampledRouterFromSample(sample))
	if !ix.Router().Ordered() || ix.Router().Name() != "range" {
		t.Fatalf("router = %s ordered=%v", ix.Router().Name(), ix.Router().Ordered())
	}
	for _, k := range sample {
		if _, err := ix.Set(k, uint64(k[0])*4+uint64(k[1])); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	n := ix.Scan([]byte{0x50}, 10, func(k []byte, v uint64) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if n != 10 {
		t.Fatalf("scan visited %d keys, want 10", n)
	}
	for i, k := range got {
		want := []byte{byte(0x50 + i/4), byte(i % 4)}
		if !bytes.Equal(k, want) {
			t.Fatalf("scan[%d] = %x, want %x", i, k, want)
		}
	}
	for s, o := range opens {
		want := int32(0)
		if s == 1 {
			want = 1
		}
		if o != want {
			t.Fatalf("shard %d: %d cursor opens, want %d (opens = %v)", s, o, want, opens)
		}
	}
	// A scan crossing the sampled shard-1/shard-2 boundary opens exactly
	// the two shards it reaches.
	var crossed []byte
	ix.Scan([]byte{0x7f, 0x03}, 2, func(k []byte, v uint64) bool {
		crossed = append(crossed, k[0])
		return true
	})
	if !bytes.Equal(crossed, []byte{0x7f, 0x80}) {
		t.Fatalf("boundary scan first bytes = %x, want 7f80", crossed)
	}
	if opens[0] != 0 || opens[3] != 0 {
		t.Fatalf("boundary scan touched uninvolved shards: opens = %v", opens)
	}
}

// TestSampledTrainOnce: training happens exactly once, and only into an
// empty index — keys placed before training (under the prefix split) must
// never be stranded by a later retrain, and a second bulk load must reuse
// the first load's boundaries.
func TestSampledTrainOnce(t *testing.T) {
	mkIndex := func() *sharded.Index {
		return sharded.NewWithRouter(4, 1<<10, factories()["SkipList"], sharded.NewSampledRouter)
	}
	spread := func(lo, hi, n int) ([][]byte, []uint64) {
		keys := make([][]byte, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = []byte{byte(lo + i*(hi-lo)/n), byte(i)}
			vals[i] = uint64(i)
		}
		return keys, vals
	}

	// BulkLoad into an empty index trains: keys spread across shards.
	ix := mkIndex()
	keys, vals := spread(0, 256, 512)
	if _, err := ix.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	for s, l := range ix.ShardLens() {
		if l == 0 {
			t.Fatalf("shard %d empty after training load: %v", s, ix.ShardLens())
		}
	}
	// A second, differently-distributed load must NOT retrain (boundaries
	// fixed). Its 3-byte keys cannot collide with the first load's 2-byte
	// keys, so the count must come out exact.
	moreKeys := make([][]byte, 64)
	moreVals := make([]uint64, 64)
	for i := range moreKeys {
		moreKeys[i] = []byte{byte(128 + i), byte(i), 0xff}
		moreVals[i] = uint64(i)
	}
	if _, err := ix.BulkLoad(moreKeys, moreVals); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != 512+64 {
		t.Fatalf("Len after second load = %d, want %d (retrain stranded keys?)", got, 512+64)
	}

	// Set-before-BulkLoad: the index is non-empty when the load arrives, so
	// training must be skipped — under a trained table the load's duplicate
	// of the pre-load key would route to shard 0, not to the prefix split's
	// shard 1 where the copy already sits, leaving a stale duplicate behind.
	pre := []byte{0x40, 0x00, 0xee}
	ix2 := mkIndex()
	if _, err := ix2.Set(pre, 7); err != nil {
		t.Fatal(err)
	}
	dupKeys := append(append([][]byte{}, keys...), pre)
	dupVals := append(append([]uint64{}, vals...), 1000)
	if _, err := ix2.BulkLoad(dupKeys, dupVals); err != nil {
		t.Fatal(err)
	}
	if r, ok := ix2.Router().(*sharded.SampledRouter); !ok || r.Trained() {
		t.Fatalf("router trained into a non-empty index (trained=%v)", r.Trained())
	}
	if got := ix2.Len(); got != 512+1 {
		t.Fatalf("Len = %d after load into non-empty index, want %d", got, 512+1)
	}
	if v, ok := ix2.Get(pre); !ok || v != 1000 {
		t.Fatalf("pre-load key = %d,%v after dup load, want 1000", v, ok)
	}
	var hits int
	ix2.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
		if bytes.Equal(k, pre) {
			hits++
		}
		return true
	})
	if hits != 1 {
		t.Fatalf("pre-load key appears %d times in scan, want 1 (stale copy stranded)", hits)
	}
}

// TestPooledCursorReuse: Close recycles cursors (and their shard cursors)
// through the pool, so repeated scans stop calling NewCursor on the shards
// after warm-up, and a recycled cursor re-Seeks correctly.
func TestPooledCursorReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   sharded.RouterMaker
	}{
		{"hash", sharded.NewHashRouter},
		{"range", sharded.NewSampledRouter},
		{"sampled", sharded.NewSampledRouterFromSample(singleByteKeys())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, opens := spyFactory(t, 4, tc.mk)
			for b := 0; b < 256; b++ {
				if _, err := ix.Set([]byte{byte(b)}, uint64(b)); err != nil {
					t.Fatal(err)
				}
			}
			total := func() (n int32) {
				for i := range opens {
					n += atomic.LoadInt32(&opens[i])
				}
				return
			}
			full := func() int {
				return ix.Scan(nil, 1<<30, func([]byte, uint64) bool { return true })
			}
			if got := full(); got != 256 {
				t.Fatalf("first scan visited %d keys, want 256", got)
			}
			after := total()
			for i := 0; i < 10; i++ {
				if got := full(); got != 256 {
					t.Fatalf("scan %d visited %d keys, want 256", i, got)
				}
			}
			// Under -race, sync.Pool drops Puts at random by design, so the
			// zero-new-cursors property only holds without the detector.
			if got := total(); got != after && !raceDetectorEnabled {
				t.Fatalf("repeated scans opened %d new shard cursors, want 0", got-after)
			}
			// A redundant Close (before the pool re-hands the cursor out) must
			// not corrupt the pool with a double Put; Close after reacquisition
			// is a use-after-Close contract violation like any other.
			c := ix.NewCursor()
			c.Close()
			c.Close()
			a, b := ix.NewCursor(), ix.NewCursor()
			if a == b {
				t.Fatal("double Close handed the same cursor out twice")
			}
			a.Close()
			b.Close()
		})
	}
}

// singleByteKeys returns every single-byte key in order — a training
// sample whose 4-shard quantile boundaries are 0x40, 0x80, 0xc0.
func singleByteKeys() [][]byte {
	out := make([][]byte, 256)
	for b := range out {
		out[b] = []byte{byte(b)}
	}
	return out
}

// allRouters lists every routing mode for tests that must hold across all
// three; the sampled entry is pre-trained on single-byte keys.
func allRouters() []struct {
	name string
	mk   sharded.RouterMaker
} {
	return []struct {
		name string
		mk   sharded.RouterMaker
	}{
		{"hash", sharded.NewHashRouter},
		{"range", sharded.NewSampledRouter},
		{"sampled", sharded.NewSampledRouterFromSample(singleByteKeys())},
	}
}

// TestRecycledCursorSeeksFresh: a cursor re-acquired after Close must carry
// no state from its previous life — Valid/Key report unpositioned, and the
// first Seek repositions every underlying shard cursor correctly even
// though those stayed open across the recycle. Runs across all three
// routers (merge cursor under hash, chain cursor under range/sampled).
func TestRecycledCursorSeeksFresh(t *testing.T) {
	for _, tc := range allRouters() {
		t.Run(tc.name, func(t *testing.T) {
			ix, _ := spyFactory(t, 4, tc.mk)
			for b := 0; b < 256; b++ {
				if _, err := ix.Set([]byte{byte(b)}, uint64(b)); err != nil {
					t.Fatal(err)
				}
			}
			// First life: position deep into the keyspace, then Close
			// mid-iteration so cur/heap state is mid-stream, not exhausted.
			c := ix.NewCursor()
			if !c.Seek([]byte{0xe0}) || c.Value() != 0xe0 {
				t.Fatalf("first-life Seek = %v value %d", c.Valid(), c.Value())
			}
			c.Next()
			c.Close()

			// Second life (same pooled object under the hood): unpositioned
			// until Seek, then repositions from scratch at a lower key.
			c2 := ix.NewCursor()
			if c2.Valid() {
				t.Fatal("recycled cursor valid before Seek (stale position)")
			}
			if c2.Key() != nil {
				t.Fatalf("recycled cursor Key = %x before Seek", c2.Key())
			}
			if !c2.Seek([]byte{0x10}) || c2.Value() != 0x10 {
				t.Fatalf("recycled Seek(0x10) = %v value %d", c2.Valid(), c2.Value())
			}
			for want := uint64(0x11); want < 0x18; want++ {
				if !c2.Next() || c2.Value() != want {
					t.Fatalf("recycled walk at %d: valid=%v value=%d", want, c2.Valid(), c2.Value())
				}
			}
			c2.Close()

			// Third life: exhaust, recycle, and re-Seek — exhausted state
			// must not leak either.
			c3 := ix.NewCursor()
			if c3.Seek([]byte{0xff, 0x01}) {
				t.Fatal("Seek past end reported a key")
			}
			c3.Close()
			c4 := ix.NewCursor()
			if !c4.Seek(nil) || c4.Value() != 0 {
				t.Fatalf("post-exhaustion recycled Seek(nil) = %v value %d", c4.Valid(), c4.Value())
			}
			n := 1
			for c4.Next() {
				n++
			}
			if n != 256 {
				t.Fatalf("recycled full walk visited %d keys, want 256", n)
			}
			c4.Close()
		})
	}
}

// TestShardedBulkLoadLengthContract: the sharded BulkLoad method itself
// (not just the index.BulkLoad entry point) must reject a short vals slice
// with index.ErrBulkLen — the old code sliced vals[:len(keys)] and
// panicked.
func TestShardedBulkLoadLengthContract(t *testing.T) {
	ix := sharded.New(4, 64, factories()["SkipList"])
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	added, err := ix.BulkLoad(keys, []uint64{1})
	if !errors.Is(err, index.ErrBulkLen) {
		t.Fatalf("short-vals sharded BulkLoad = %d, %v, want ErrBulkLen", added, err)
	}
	if ix.Len() != 0 {
		t.Fatalf("short-vals BulkLoad inserted %d keys", ix.Len())
	}
	// Extra vals beyond len(keys) are ignored, not an error.
	if added, err := ix.BulkLoad(keys, []uint64{1, 2, 3, 4}); err != nil || added != 3 {
		t.Fatalf("extra-vals BulkLoad = %d, %v", added, err)
	}
}

// TestBulkLoadPartitioned: the sharded BulkLoad must agree with the
// incremental path on a stream with duplicates, under every router —
// including the untrained range router, which derives its boundaries from
// this very stream while the incremental copy keeps the prefix split — and
// report per-shard added counts summed correctly. In the sampled-untrained
// case both copies already hold a key, so the bulk load must not train and
// the two copies must also agree shard by shard.
func TestBulkLoadPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20000
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		if i > 0 && i%9 == 0 {
			keys[i] = keys[rng.Intn(i)] // duplicate: last value must win
		} else {
			k := make([]byte, 1+rng.Intn(12))
			rng.Read(k)
			keys[i] = k
		}
		vals[i] = uint64(i)
	}
	routers := append(allRouters(), struct {
		name string
		mk   sharded.RouterMaker
	}{"sampled-untrained", sharded.NewSampledRouter})
	for _, tc := range routers {
		t.Run(tc.name, func(t *testing.T) {
			bulk := sharded.NewWithRouter(8, n, factories()["CuckooTrie"], tc.mk)
			incr := sharded.NewWithRouter(8, n, factories()["CuckooTrie"], tc.mk)
			untrained := tc.name == "sampled-untrained"
			if untrained {
				held := bytes.Repeat([]byte{0x80}, 13) // longer than any stream key
				for _, ix := range []*sharded.Index{bulk, incr} {
					if _, err := ix.Set(held, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			added, err := bulk.BulkLoad(keys, vals)
			if err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
			wantAdded := 0
			for i, k := range keys {
				a, err := incr.Set(k, vals[i])
				if err != nil {
					t.Fatal(err)
				}
				if a {
					wantAdded++
				}
			}
			if added != wantAdded {
				t.Fatalf("BulkLoad added %d, incremental %d", added, wantAdded)
			}
			if bulk.Len() != incr.Len() {
				t.Fatalf("Len: bulk %d, incremental %d", bulk.Len(), incr.Len())
			}
			got := make([]uint64, n)
			found := make([]bool, n)
			bulk.MultiGet(keys, got, found)
			want := make([]uint64, n)
			wfound := make([]bool, n)
			incr.MultiGet(keys, want, wfound)
			for i := range keys {
				if found[i] != wfound[i] || got[i] != want[i] {
					t.Fatalf("key %x: bulk %d,%v incremental %d,%v",
						keys[i], got[i], found[i], want[i], wfound[i])
				}
			}
			if untrained {
				if bulk.Router().(*sharded.SampledRouter).Trained() {
					t.Fatal("BulkLoad into a non-empty index trained the router")
				}
				if b, i := bulk.ShardLens(), incr.ShardLens(); fmt.Sprint(b) != fmt.Sprint(i) {
					t.Fatalf("shard lens: bulk %v, incremental %v", b, i)
				}
			}
		})
	}
}

// failAfterIndex wraps an inner index and fails Set/MultiSet for one
// specific key, so error propagation through the partitioned load path can
// be observed.
type failAfterIndex struct {
	index.Index
	bad string
}

var errBadKey = fmt.Errorf("injected bulk-load failure")

func (f failAfterIndex) Set(k []byte, v uint64) (bool, error) {
	if string(k) == f.bad {
		return false, errBadKey
	}
	return f.Index.Set(k, v)
}

func (f failAfterIndex) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	return index.FallbackMultiSet(f, keys, vals, errs)
}

// failManyIndex fails Set for every key in bad, each with its own error.
type failManyIndex struct {
	index.Index
	bad map[string]error
}

func (f failManyIndex) Set(k []byte, v uint64) (bool, error) {
	if err, ok := f.bad[string(k)]; ok {
		return false, err
	}
	return f.Index.Set(k, v)
}

func (f failManyIndex) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	return index.FallbackMultiSet(f, keys, vals, errs)
}

// TestBulkLoadFirstErrorShardOrder: when MULTIPLE shards fail during a
// partitioned load, the error surfaced is the lowest-numbered failing
// shard's — deterministic in shard order, not racy in completion order,
// even though the shards load concurrently.
func TestBulkLoadFirstErrorShardOrder(t *testing.T) {
	errShard1 := fmt.Errorf("shard-1 failure")
	errShard2 := fmt.Errorf("shard-2 failure")
	bad := map[string]error{
		"\x50bad": errShard1, // sorts second of the 4 keys → trained shard 1 of 4
		"\x90bad": errShard2, // sorts third → trained shard 2 of 4
	}
	inner := factories()["SkipList"]
	for i := 0; i < 10; i++ { // repeat: completion order varies per run
		ix := sharded.NewWithRouter(4, 1<<10, func(c int) index.Index {
			return failManyIndex{inner(c), bad}
		}, sharded.NewSampledRouter)
		// Stream order puts the HIGHER shard's bad key first: stream order
		// must not matter, only shard order.
		keys := [][]byte{{0x90, 'b', 'a', 'd'}, {0x00, 'a'}, {0x50, 'b', 'a', 'd'}, {0xd0, 'c'}}
		vals := []uint64{1, 2, 3, 4}
		added, err := ix.BulkLoad(keys, vals)
		if !errors.Is(err, errShard1) {
			t.Fatalf("BulkLoad err = %v, want shard 1's error (shard order, not completion order)", err)
		}
		if added != 2 {
			t.Fatalf("BulkLoad added %d, want 2 (the non-failing keys)", added)
		}
	}
}

// TestBulkLoadPropagatesError: a shard failing mid-load surfaces the error
// while the other shards' keys still land (MultiSet keeps going).
func TestBulkLoadPropagatesError(t *testing.T) {
	inner := factories()["SkipList"]
	ix := sharded.NewWithRouter(4, 1<<10, func(c int) index.Index {
		return failAfterIndex{inner(c), "\x10bad"}
	}, sharded.NewSampledRouter)
	keys := [][]byte{{0x10, 'a'}, []byte("\x10bad"), {0x90, 'b'}, {0xd0, 'c'}}
	vals := []uint64{1, 2, 3, 4}
	added, err := ix.BulkLoad(keys, vals)
	if err == nil {
		t.Fatal("BulkLoad swallowed the injected shard error")
	}
	if added != 3 {
		t.Fatalf("BulkLoad added %d, want 3 (the non-failing keys)", added)
	}
	for i, k := range keys {
		_, ok := ix.Get(k)
		if want := i != 1; ok != want {
			t.Fatalf("Get(%x) = %v after failed load, want %v", k, ok, want)
		}
	}
}

// BenchmarkShardedScan measures the pooled-cursor scan path: after
// warm-up, Scan must not allocate a merge structure or fresh shard cursors
// per call (compare ReportAllocs between routers and against the
// pre-pooling path, which allocated the cursor slice + per-shard cursors
// on every Scan).
func BenchmarkShardedScan(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   sharded.RouterMaker
	}{{"hash", sharded.NewHashRouter}, {"range", sharded.NewSampledRouter}} {
		b.Run(tc.name, func(b *testing.B) {
			ix := sharded.NewWithRouter(8, 1<<16, factories()["CuckooTrie"], tc.mk)
			rng := rand.New(rand.NewSource(7))
			keys := make([][]byte, 1<<14)
			for i := range keys {
				k := make([]byte, 8)
				rng.Read(k)
				keys[i] = k
				if _, err := ix.Set(k, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Scan(keys[i%len(keys)], 100, func(k []byte, v uint64) bool {
					sink += v
					return true
				})
			}
			_ = sink
		})
	}
}

// Package indextest provides a reusable conformance suite run against every
// index.Index implementation (Cuckoo Trie and all baselines), so that the
// benchmark harness compares functionally equivalent structures. It covers
// the full API v2 surface: point operations, the Set added-flag, batched
// MultiGet/MultiSet, callback scans, and cursors.
package indextest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/persist"
)

// Options tailor the suite to an implementation's documented limits.
type Options struct {
	// FixedKeyLen restricts generated keys to exactly this many bytes
	// (MlpIndex supports only 8-byte keys).
	FixedKeyLen int
	// NoScan skips ordered-iteration tests (MlpIndex has no scans); cursor
	// tests then only assert that the cursor is never valid.
	NoScan bool
	// NoDelete skips deletion tests.
	NoDelete bool
}

// Run executes the conformance suite. mk must return a fresh empty index
// sized for at least the given capacity.
func Run(t *testing.T, mk func(capacity int) index.Index, opts Options) {
	t.Run("Empty", func(t *testing.T) { testEmpty(t, mk, opts) })
	t.Run("SetGet", func(t *testing.T) { testSetGet(t, mk, opts) })
	t.Run("Update", func(t *testing.T) { testUpdate(t, mk, opts) })
	t.Run("SetAdded", func(t *testing.T) { testSetAdded(t, mk, opts) })
	t.Run("MultiGet", func(t *testing.T) { testMultiGet(t, mk, opts) })
	t.Run("MultiSet", func(t *testing.T) { testMultiSet(t, mk, opts) })
	t.Run("BulkLoad", func(t *testing.T) { testBulkLoad(t, mk, opts) })
	t.Run("KeyNotRetained", func(t *testing.T) { testKeyNotRetained(t, mk, opts) })
	t.Run("RandomModel", func(t *testing.T) { testRandomModel(t, mk, opts) })
	t.Run("Cursor", func(t *testing.T) { testCursor(t, mk, opts) })
	if !opts.NoScan {
		t.Run("ScanOrder", func(t *testing.T) { testScanOrder(t, mk, opts) })
		t.Run("ScanBounds", func(t *testing.T) { testScanBounds(t, mk, opts) })
		t.Run("CursorOrder", func(t *testing.T) { testCursorOrder(t, mk, opts) })
		t.Run("PersistRecover", func(t *testing.T) { testPersistRecover(t, mk, opts) })
	}
	if !opts.NoDelete {
		t.Run("Delete", func(t *testing.T) { testDelete(t, mk, opts) })
	}
	t.Run("Memory", func(t *testing.T) { testMemory(t, mk, opts) })
}

func (o Options) key(rng *rand.Rand) []byte {
	n := o.FixedKeyLen
	if n == 0 {
		n = 1 + rng.Intn(20)
	}
	k := make([]byte, n)
	rng.Read(k)
	return k
}

func u64key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// mustSet is a Set that fails the test on error and returns the added flag.
func mustSet(t *testing.T, ix index.Index, k []byte, v uint64) bool {
	t.Helper()
	added, err := ix.Set(k, v)
	if err != nil {
		t.Fatalf("Set(%x): %v", k, err)
	}
	return added
}

func testEmpty(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(16)
	if ix.Len() != 0 {
		t.Fatal("fresh index not empty")
	}
	if _, ok := ix.Get(u64key(42)); ok {
		t.Fatal("Get on empty index")
	}
	// Empty-batch edge cases: must be no-ops, not panics.
	ix.MultiGet(nil, nil, nil)
	if added := ix.MultiSet(nil, nil, nil); added != 0 {
		t.Fatalf("empty MultiSet added %d", added)
	}
	// Batch ops against an empty index.
	vals := make([]uint64, 2)
	found := []bool{true, true}
	ix.MultiGet([][]byte{u64key(1), u64key(2)}, vals, found)
	if found[0] || found[1] {
		t.Fatal("MultiGet found keys in empty index")
	}
	// A cursor over an empty index is never valid.
	c := ix.NewCursor()
	if c.Valid() {
		t.Fatal("fresh cursor valid on empty index")
	}
	if c.Seek(nil) || c.Valid() {
		t.Fatal("cursor seek on empty index succeeded")
	}
	c.Close()
	if !opts.NoScan {
		n := ix.Scan(nil, 10, func([]byte, uint64) bool { return true })
		if n != 0 {
			t.Fatal("scan on empty index visited keys")
		}
	}
}

func testSetGet(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(1024)
	for i := 0; i < 500; i++ {
		if !mustSet(t, ix, u64key(uint64(i*7)), uint64(i)) {
			t.Fatalf("Set(%d) of fresh key reported update", i*7)
		}
	}
	for i := 0; i < 500; i++ {
		if v, ok := ix.Get(u64key(uint64(i * 7))); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v", i*7, v, ok)
		}
	}
	if _, ok := ix.Get(u64key(1)); ok {
		t.Fatal("found absent key")
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func testUpdate(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(64)
	k := u64key(99)
	mustSet(t, ix, k, 1)
	mustSet(t, ix, k, 2)
	if v, _ := ix.Get(k); v != 2 {
		t.Fatalf("update: v = %d", v)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after update", ix.Len())
	}
}

func testSetAdded(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(256)
	k := u64key(7)
	if !mustSet(t, ix, k, 1) {
		t.Fatal("first Set: added = false")
	}
	if mustSet(t, ix, k, 2) {
		t.Fatal("second Set of same key: added = true")
	}
	if v, _ := ix.Get(k); v != 2 {
		t.Fatalf("value after update = %d", v)
	}
	// Interleave fresh keys and updates; the added flags must track exactly.
	rng := rand.New(rand.NewSource(47))
	seen := map[string]bool{}
	seen[string(k)] = true
	var pool [][]byte
	pool = append(pool, k)
	for i := 0; i < 2000; i++ {
		var kk []byte
		if rng.Intn(3) == 0 {
			kk = pool[rng.Intn(len(pool))]
		} else {
			kk = opts.key(rng)
		}
		wantAdded := !seen[string(kk)]
		if got := mustSet(t, ix, kk, uint64(i)); got != wantAdded {
			t.Fatalf("Set(%x) added = %v, want %v", kk, got, wantAdded)
		}
		if wantAdded {
			seen[string(kk)] = true
			pool = append(pool, kk)
		}
	}
	if ix.Len() != len(seen) {
		t.Fatalf("Len = %d, distinct keys %d", ix.Len(), len(seen))
	}
	if !opts.NoDelete {
		if !ix.Delete(k) {
			t.Fatal("Delete of live key failed")
		}
		if !mustSet(t, ix, k, 3) {
			t.Fatal("re-Set after Delete: added = false")
		}
	}
}

func testMultiGet(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(48))
	ix := mk(1 << 13)
	model := map[string]uint64{}
	var stored [][]byte
	for i := 0; i < 5000; i++ {
		k := opts.key(rng)
		mustSet(t, ix, k, uint64(i))
		model[string(k)] = uint64(i)
		stored = append(stored, k)
	}
	// Mixed batch: present keys, missing keys, and duplicates.
	for _, batchSize := range []int{1, 2, 8, 64, 257} {
		batch := make([][]byte, batchSize)
		for j := range batch {
			switch j % 3 {
			case 0, 1:
				batch[j] = stored[rng.Intn(len(stored))]
			default:
				batch[j] = opts.key(rng) // almost surely missing
			}
		}
		if batchSize > 2 {
			batch[batchSize-1] = batch[0] // duplicate within the batch
		}
		vals := make([]uint64, batchSize)
		found := make([]bool, batchSize)
		ix.MultiGet(batch, vals, found)
		for j, k := range batch {
			want, ok := model[string(k)]
			if found[j] != ok {
				t.Fatalf("batch %d: MultiGet found[%d] = %v, want %v (key %x)",
					batchSize, j, found[j], ok, k)
			}
			if ok && vals[j] != want {
				t.Fatalf("batch %d: MultiGet vals[%d] = %d, want %d",
					batchSize, j, vals[j], want)
			}
		}
	}
	// All-missing batch.
	missing := make([][]byte, 16)
	for j := range missing {
		missing[j] = opts.key(rng)
		for {
			if _, ok := model[string(missing[j])]; !ok {
				break
			}
			missing[j] = opts.key(rng)
		}
	}
	vals := make([]uint64, len(missing))
	found := make([]bool, len(missing))
	for j := range found {
		found[j] = true // must be overwritten
	}
	ix.MultiGet(missing, vals, found)
	for j := range missing {
		if _, ok := model[string(missing[j])]; !ok && found[j] {
			t.Fatalf("MultiGet reported missing key %x as found", missing[j])
		}
	}
}

func testMultiSet(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(49))
	ix := mk(1 << 12)
	// Fresh batch: all keys added.
	n := 500
	ks := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	seen := map[string]bool{}
	for len(ks) < n {
		k := opts.key(rng)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		ks = append(ks, k)
		vals = append(vals, uint64(len(ks)))
	}
	errs := make([]error, n)
	if added := ix.MultiSet(ks, vals, errs); added != n {
		t.Fatalf("MultiSet added %d of %d fresh keys", added, n)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("MultiSet errs[%d] = %v", i, errs[i])
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d after MultiSet, want %d", ix.Len(), n)
	}
	// Re-setting the same batch updates in place: zero added, values change.
	for i := range vals {
		vals[i] += 1000
	}
	if added := ix.MultiSet(ks, vals, nil); added != 0 {
		t.Fatalf("MultiSet re-set added %d, want 0", added)
	}
	got := make([]uint64, n)
	found := make([]bool, n)
	ix.MultiGet(ks, got, found)
	for i := range ks {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("after MultiSet update: key %d = %d,%v want %d",
				i, got[i], found[i], vals[i])
		}
	}
	// Half-and-half batch: updates mixed with fresh inserts.
	mixed := make([][]byte, 0, 100)
	mvals := make([]uint64, 0, 100)
	wantAdded := 0
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			mixed = append(mixed, ks[rng.Intn(len(ks))])
		} else {
			k := opts.key(rng)
			if seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			mixed = append(mixed, k)
			wantAdded++
		}
		mvals = append(mvals, uint64(i))
	}
	if added := ix.MultiSet(mixed, mvals, nil); added != wantAdded {
		t.Fatalf("mixed MultiSet added %d, want %d", added, wantAdded)
	}
}

// testBulkLoad is the bulk-load equivalence test: an index built through
// index.BulkLoad (native BulkLoader or the MultiSet fallback) must be
// element-for-element identical — Len, Get, and full Scan stream — to one
// built by incremental Set over the same insert stream, including
// duplicate keys (last write wins) and the newly-added accounting.
func testBulkLoad(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(50))
	n := 3000
	keys := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		var k []byte
		if len(keys) > 0 && i%7 == 3 {
			k = keys[rng.Intn(len(keys))] // in-stream duplicate: later value wins
		} else {
			k = opts.key(rng)
		}
		keys = append(keys, k)
		vals = append(vals, uint64(i))
	}

	bulk := mk(n)
	added, err := index.BulkLoad(bulk, keys, vals)
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}

	incr := mk(n)
	wantAdded := 0
	for i, k := range keys {
		if mustSet(t, incr, k, vals[i]) {
			wantAdded++
		}
	}
	if added != wantAdded {
		t.Fatalf("BulkLoad added %d, incremental added %d", added, wantAdded)
	}
	if bulk.Len() != incr.Len() {
		t.Fatalf("Len: bulk %d, incremental %d", bulk.Len(), incr.Len())
	}
	for _, k := range keys {
		bv, bok := bulk.Get(k)
		iv, iok := incr.Get(k)
		if bok != iok || bv != iv {
			t.Fatalf("Get(%x): bulk %d,%v incremental %d,%v", k, bv, bok, iv, iok)
		}
	}
	if !opts.NoScan {
		type kv struct {
			k string
			v uint64
		}
		collect := func(ix index.Index) []kv {
			var out []kv
			ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
				out = append(out, kv{string(k), v})
				return true
			})
			return out
		}
		bs, is := collect(bulk), collect(incr)
		if len(bs) != len(is) {
			t.Fatalf("scan: bulk %d keys, incremental %d", len(bs), len(is))
		}
		for i := range bs {
			if bs[i] != is[i] {
				t.Fatalf("scan[%d]: bulk %x=%d, incremental %x=%d",
					i, bs[i].k, bs[i].v, is[i].k, is[i].v)
			}
		}
	}
	// An empty load is a no-op, not a panic.
	if added, err := index.BulkLoad(mk(4), nil, nil); added != 0 || err != nil {
		t.Fatalf("empty BulkLoad = %d, %v", added, err)
	}
	// A vals slice shorter than keys is a reported error (index.ErrBulkLen)
	// before any key lands — a mismatched batch is caller data, not a
	// license to panic.
	short := mk(4)
	if _, err := index.BulkLoad(short, [][]byte{u64key(1), u64key(2)}, []uint64{9}); !errors.Is(err, index.ErrBulkLen) {
		t.Fatalf("short-vals BulkLoad err = %v, want ErrBulkLen", err)
	}
	if short.Len() != 0 {
		t.Fatalf("short-vals BulkLoad inserted %d keys before failing", short.Len())
	}
}

// testKeyNotRetained pins the contract that lets a server pass keys
// borrowed from its read buffer straight to an engine: Set, MultiSet and
// BulkLoad copy their keys, so a caller may overwrite its buffers as soon
// as the call returns. Every key is written from one shared buffer that is
// then inverted; Get of the original bytes must still find each value, and
// ordered iteration must still yield the original keys.
func testKeyNotRetained(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(52))
	model := map[string]uint64{}
	var want [][]byte // the original keys, in the order written
	// write hands ix n fresh keys carved from one buffer, then inverts the
	// buffer.
	write := func(ix index.Index, n int, how string) {
		var buf []byte
		var ends []int
		for len(ends) < n {
			k := opts.key(rng)
			if _, dup := model[string(k)]; dup {
				continue
			}
			model[string(k)] = uint64(len(want))
			want = append(want, k)
			buf = append(buf, k...)
			ends = append(ends, len(buf))
		}
		ks := make([][]byte, n)
		vs := make([]uint64, n)
		from := 0
		for i, end := range ends {
			ks[i] = buf[from:end:end]
			vs[i] = model[string(ks[i])]
			from = end
		}
		switch how {
		case "Set":
			for i := range ks {
				mustSet(t, ix, ks[i], vs[i])
			}
		case "MultiSet":
			if added := ix.MultiSet(ks, vs, nil); added != n {
				t.Fatalf("MultiSet added %d of %d fresh keys", added, n)
			}
		case "BulkLoad":
			if _, err := index.BulkLoad(ix, ks, vs); err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
		}
		for i := range buf {
			buf[i] ^= 0xff
		}
	}
	bulk := mk(1 << 12)
	write(bulk, 1000, "BulkLoad")
	ix := mk(1 << 12)
	write(ix, 1000, "Set")
	write(ix, 1000, "MultiSet")
	// Both indexes are checked against the keys each was given.
	for _, c := range []struct {
		ix   index.Index
		keys [][]byte
	}{{bulk, want[:1000]}, {ix, want[1000:]}} {
		if c.ix.Len() != len(c.keys) {
			t.Fatalf("Len = %d, want %d", c.ix.Len(), len(c.keys))
		}
		for _, k := range c.keys {
			if v, ok := c.ix.Get(k); !ok || v != model[string(k)] {
				t.Fatalf("Get(%x) = %d,%v after the caller's buffer was overwritten, want %d",
					k, v, ok, model[string(k)])
			}
		}
		if opts.NoScan {
			continue
		}
		sorted := append([][]byte(nil), c.keys...)
		sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
		i := 0
		c.ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
			if i >= len(sorted) || !bytes.Equal(k, sorted[i]) || v != model[string(k)] {
				t.Fatalf("Scan[%d] = %x=%d, want an original key", i, k, v)
			}
			i++
			return true
		})
		cur := c.ix.NewCursor()
		i = 0
		for ok := cur.Seek(nil); ok; ok = cur.Next() {
			if i >= len(sorted) || !bytes.Equal(cur.Key(), sorted[i]) {
				cur.Close()
				t.Fatalf("cursor[%d] = %x, want an original key", i, cur.Key())
			}
			i++
		}
		cur.Close()
		if i != len(sorted) {
			t.Fatalf("cursor visited %d keys, want %d", i, len(sorted))
		}
	}
}

func testRandomModel(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(42))
	ix := mk(1 << 14)
	model := map[string]uint64{}
	for i := 0; i < 10000; i++ {
		k := opts.key(rng)
		model[string(k)] = uint64(i)
		mustSet(t, ix, k, uint64(i))
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", ix.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := ix.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%x) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func testScanOrder(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(43))
	ix := mk(1 << 13)
	model := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		k := opts.key(rng)
		model[string(k)] = uint64(i)
		ix.Set(k, uint64(i))
	}
	var want []string
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan: %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %x, want %x", i, got[i], want[i])
		}
	}
}

func testScanBounds(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(1 << 10)
	for i := 0; i < 100; i++ {
		ix.Set(u64key(uint64(i*2)), uint64(i*2))
	}
	var got []uint64
	ix.Scan(u64key(31), 5, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	want := []uint64{32, 34, 36, 38, 40}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bounded scan = %v, want %v", got, want)
	}
	// Early stop.
	n := ix.Scan(nil, 100, func(k []byte, v uint64) bool { return v < 10 })
	if n != 6 {
		t.Fatalf("early-stop visited %d, want 6", n)
	}
}

// testCursor covers cursor mechanics that hold for every engine, including
// scanless ones (whose cursors are simply never valid).
func testCursor(t *testing.T, mk func(int) index.Index, opts Options) {
	ix := mk(1 << 10)
	for i := 0; i < 100; i++ {
		mustSet(t, ix, u64key(uint64(i*2)), uint64(i*2))
	}
	c := ix.NewCursor()
	defer c.Close()
	if c.Valid() {
		t.Fatal("unpositioned cursor is valid")
	}
	if opts.NoScan {
		if c.Seek(nil) || c.Valid() {
			t.Fatal("scanless engine produced a valid cursor")
		}
		return
	}
	// Seek to an absent key lands on its successor.
	if !c.Seek(u64key(31)) {
		t.Fatal("Seek(31) found nothing")
	}
	for i, want := range []uint64{32, 34, 36, 38} {
		if !c.Valid() || c.Value() != want || !bytes.Equal(c.Key(), u64key(want)) {
			t.Fatalf("cursor step %d: key %x value %d, want %d",
				i, c.Key(), c.Value(), want)
		}
		c.Next()
	}
	// Seek past the maximum key: invalid, and Next stays invalid.
	if c.Seek(u64key(10_000)) {
		t.Fatal("Seek past end reported a key")
	}
	if c.Valid() || c.Next() || c.Valid() {
		t.Fatal("cursor valid after seek past end")
	}
	// Re-seek after exhaustion works.
	if !c.Seek(nil) || c.Value() != 0 {
		t.Fatalf("re-Seek(nil) = %v value %d", c.Valid(), c.Value())
	}
	// Walking off the end invalidates.
	steps := 0
	for c.Valid() {
		steps++
		if steps > 200 {
			t.Fatal("cursor did not terminate")
		}
		c.Next()
	}
	if steps != 100 {
		t.Fatalf("cursor walked %d keys, want 100", steps)
	}
}

// testCursorOrder cross-checks a full cursor walk against Scan on a random
// key set large enough to exercise page boundaries in adapted cursors.
func testCursorOrder(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(46))
	ix := mk(1 << 13)
	for i := 0; i < 3000; i++ {
		mustSet(t, ix, opts.key(rng), uint64(i))
	}
	var want []string
	var wantVals []uint64
	ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
		want = append(want, string(k))
		wantVals = append(wantVals, v)
		return true
	})
	c := ix.NewCursor()
	defer c.Close()
	i := 0
	for ok := c.Seek(nil); ok; ok = c.Next() {
		if i >= len(want) {
			t.Fatalf("cursor visited more than %d keys", len(want))
		}
		if string(c.Key()) != want[i] || c.Value() != wantVals[i] {
			t.Fatalf("cursor[%d] = %x=%d, want %x=%d",
				i, c.Key(), c.Value(), want[i], wantVals[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("cursor visited %d keys, scan visited %d", i, len(want))
	}
	// Mid-stream seek agrees with a bounded scan.
	mid := []byte(want[len(want)/2])
	if !c.Seek(mid) || !bytes.Equal(c.Key(), mid) {
		t.Fatalf("mid-stream Seek(%x) landed on %x", mid, c.Key())
	}
}

// testPersistRecover is the snapshot→recover equivalence case: a mixed
// write stream is applied to a live index and logged to a WAL, a snapshot
// is cut mid-stream, and the index persist.Recover rebuilds — snapshot
// bulk-loaded (training any untrained range router from the stream),
// then the WAL tail replayed — must be element-for-element identical to
// the live index. Skipped for scanless engines: with no ordered cursor
// there is nothing to serialize.
func testPersistRecover(t *testing.T, mk func(int) index.Index, opts Options) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	live := mk(4096)
	rng := rand.New(rand.NewSource(51))
	var pool [][]byte
	apply := func(n int) {
		for i := 0; i < n; i++ {
			switch {
			case !opts.NoDelete && len(pool) > 0 && rng.Intn(5) == 0:
				k := pool[rng.Intn(len(pool))]
				if live.Delete(k) {
					if _, err := wal.Append(persist.OpDelete, "", k, 0); err != nil {
						t.Fatalf("WAL delete: %v", err)
					}
				}
			default:
				var k []byte
				if len(pool) > 0 && rng.Intn(6) == 0 {
					k = pool[rng.Intn(len(pool))] // update an existing key
				} else {
					k = opts.key(rng)
					pool = append(pool, k)
				}
				v := uint64(rng.Intn(1 << 20))
				mustSet(t, live, k, v)
				if _, err := wal.Append(persist.OpSet, "", k, v); err != nil {
					t.Fatalf("WAL set: %v", err)
				}
			}
		}
	}
	apply(2500)
	snapLSN := wal.LSN()
	if _, err := persist.SaveIndex(dir, snapLSN, live); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	apply(800)
	tail := int(wal.LSN() - snapLSN)
	if err := wal.Close(); err != nil {
		t.Fatalf("WAL close: %v", err)
	}

	got, res, err := persist.RecoverIndex(dir, mk)
	if err != nil {
		t.Fatalf("RecoverIndex: %v", err)
	}
	if res.SnapshotLSN != snapLSN || res.Replayed != tail || res.TornTail {
		t.Fatalf("recovery stats = %+v, want snapshot %d + %d replayed, clean tail",
			res, snapLSN, tail)
	}
	if got.Len() != live.Len() {
		t.Fatalf("Len: recovered %d, live %d", got.Len(), live.Len())
	}
	for _, k := range pool {
		lv, lok := live.Get(k)
		gv, gok := got.Get(k)
		if lok != gok || lv != gv {
			t.Fatalf("Get(%x): recovered %d,%v live %d,%v", k, gv, gok, lv, lok)
		}
	}
	lc, gc := live.NewCursor(), got.NewCursor()
	defer lc.Close()
	defer gc.Close()
	lok, gok := lc.Seek(nil), gc.Seek(nil)
	for lok && gok {
		if !bytes.Equal(lc.Key(), gc.Key()) || lc.Value() != gc.Value() {
			t.Fatalf("stream diverged: live %x=%d, recovered %x=%d",
				lc.Key(), lc.Value(), gc.Key(), gc.Value())
		}
		lok, gok = lc.Next(), gc.Next()
	}
	if lok != gok {
		t.Fatalf("stream lengths differ (live more: %v)", lok)
	}
}

func testDelete(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(44))
	ix := mk(1 << 12)
	model := map[string]uint64{}
	var live []string
	for i := 0; i < 4000; i++ {
		if len(live) == 0 || rng.Intn(10) < 6 {
			k := opts.key(rng)
			if _, dup := model[string(k)]; dup {
				continue
			}
			ix.Set(k, uint64(i))
			model[string(k)] = uint64(i)
			live = append(live, string(k))
		} else {
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if !ix.Delete([]byte(k)) {
				t.Fatalf("Delete(%x) failed for live key", k)
			}
			delete(model, k)
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", ix.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := ix.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%x) after churn = %d,%v want %d", k, got, ok, v)
		}
	}
	if !opts.NoScan {
		var prev []byte
		ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan disorder after deletes")
			}
			prev = append(prev[:0], k...)
			return true
		})
	}
}

func testMemory(t *testing.T, mk func(int) index.Index, opts Options) {
	rng := rand.New(rand.NewSource(45))
	ix := mk(1 << 13)
	for i := 0; i < 8000; i++ {
		ix.Set(opts.key(rng), uint64(i))
	}
	m := ix.MemoryOverheadBytes()
	if m <= 0 {
		t.Fatal("no memory accounting")
	}
	perKey := float64(m) / float64(ix.Len())
	if perKey < 4 || perKey > 2000 {
		t.Fatalf("implausible bytes/key %.1f", perKey)
	}
	if ix.Name() == "" {
		t.Fatal("index has no name")
	}
}

package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keys"
)

// TestMultiGetBasic cross-checks MultiGet against Get on a loaded trie with
// hits, misses, and duplicate keys in one batch.
func TestMultiGetBasic(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 14, AutoResize: true})
	rng := rand.New(rand.NewSource(51))
	n := 20000
	for i := 0; i < n; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*3), uint64(i))
	}
	for _, bs := range []int{1, 2, 7, 8, 64, 100, 500} {
		batch := make([][]byte, bs)
		for j := range batch {
			batch[j] = keys.Uint64Key(uint64(rng.Intn(3 * n))) // ~1/3 hit rate
		}
		if bs > 1 {
			batch[bs-1] = batch[0]
		}
		vals := make([]uint64, bs)
		found := make([]bool, bs)
		tr.MultiGet(batch, vals, found)
		for j, k := range batch {
			wv, wok := tr.Get(k)
			if found[j] != wok || (wok && vals[j] != wv) {
				t.Fatalf("batch %d: MultiGet[%d] = %d,%v; Get = %d,%v",
					bs, j, vals[j], found[j], wv, wok)
			}
		}
	}
}

// TestMultiGetVariableKeys exercises the staged hash ladders across keys of
// very different lengths (different descent depths and jump nodes) in the
// same batch.
func TestMultiGetVariableKeys(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	rng := rand.New(rand.NewSource(52))
	var stored [][]byte
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		if _, err := tr.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, k)
	}
	batch := make([][]byte, 128)
	for j := range batch {
		if j%4 == 0 {
			k := make([]byte, 1+rng.Intn(40))
			rng.Read(k)
			batch[j] = k
		} else {
			batch[j] = stored[rng.Intn(len(stored))]
		}
	}
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	tr.MultiGet(batch, vals, found)
	for j, k := range batch {
		wv, wok := tr.Get(k)
		if found[j] != wok || (wok && vals[j] != wv) {
			t.Fatalf("MultiGet[%d] (len %d) = %d,%v; Get = %d,%v",
				j, len(k), vals[j], found[j], wv, wok)
		}
	}
}

// TestMultiSetAdded verifies the batched write path's added accounting.
func TestMultiSetAdded(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 10, AutoResize: true})
	ks := make([][]byte, 100)
	vals := make([]uint64, 100)
	for i := range ks {
		ks[i] = keys.Uint64Key(uint64(i))
		vals[i] = uint64(i)
	}
	errs := make([]error, len(ks))
	if added := tr.MultiSet(ks, vals, errs); added != len(ks) {
		t.Fatalf("fresh MultiSet added %d", added)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	if added := tr.MultiSet(ks, vals, nil); added != 0 {
		t.Fatalf("repeat MultiSet added %d", added)
	}
	if tr.Len() != len(ks) {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestConcurrentMultiGet runs batched readers against concurrent writers:
// stable keys must always be found with their original values, regardless of
// the churn triggering conflict fallbacks or table resizes mid-batch.
func TestConcurrentMultiGet(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	const stable = 2000
	for i := 0; i < stable; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*2+1), uint64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	writers := 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for !stop.Load() {
				v := uint64(w+1)<<50 | uint64(rng.Int63n(1<<30))*2
				if _, err := tr.Set(keys.Uint64Key(v), v); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}(w)
	}

	readers := 2
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
			const bs = 32
			batch := make([][]byte, bs)
			idx := make([]int, bs)
			vals := make([]uint64, bs)
			found := make([]bool, bs)
			for !stop.Load() {
				for j := 0; j < bs; j++ {
					idx[j] = rng.Intn(stable)
					batch[j] = keys.Uint64Key(uint64(idx[j])*2 + 1)
				}
				tr.MultiGet(batch, vals, found)
				for j := 0; j < bs; j++ {
					if !found[j] || vals[j] != uint64(idx[j]) {
						errs <- errFmt("stable key %d: MultiGet %d,%v",
							idx[j], vals[j], found[j])
						return
					}
				}
			}
		}(r)
	}

	timeout := 2 * time.Second
	if testing.Short() {
		timeout = 300 * time.Millisecond
	}
	select {
	case err := <-errs:
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(timeout):
		stop.Store(true)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestMultiGetStagedAgainstGet drives the staged pipeline through every
// shape of key it must classify — hits, never-inserted keys, duplicates
// inside one batch, the empty key, an over-long key, and groups sharing
// 56-bit prefixes (jump nodes, probed both through and against the jump) —
// at batch sizes around the stage loop's edges, checking each slot against
// the single-key Get.
func TestMultiGetStagedAgainstGet(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	rng := rand.New(rand.NewSource(53))
	var stored, absent [][]byte
	add := func(k []byte) {
		mustSet(t, tr, k, uint64(len(stored))+1)
		stored = append(stored, k)
	}
	for i := 0; i < 3000; i++ {
		add(keys.Uint64Key(rng.Uint64()))
		absent = append(absent, keys.Uint64Key(rng.Uint64()))
	}
	// 100 groups of three 12-byte keys that differ only in their last bytes.
	// A never-inserted sibling diverges inside the shared run (a jump
	// mismatch), another after it (a bitmap miss below the jump).
	for g := 0; g < 100; g++ {
		prefix := make([]byte, 7)
		rng.Read(prefix)
		for m := 0; m < 3; m++ {
			k := append(append([]byte{}, prefix...), 0, 0, 0, byte(m), byte(rng.Intn(256)))
			add(k)
		}
		inJump := append(append([]byte{}, prefix...), 0, 0x80, 0, 0, 0)
		below := append(append([]byte{}, prefix...), 0, 0, 0, 7, 0)
		absent = append(absent, inJump, below)
	}
	add([]byte{})
	add([]byte("a"))
	if tr.Stats().JumpNodes == 0 {
		t.Fatal("the shared-prefix groups built no jump node")
	}
	tooLong := make([]byte, MaxKeyLen+1)

	for _, bs := range []int{1, 2, 3, 63, 64, 65, 200} {
		for round := 0; round < 20; round++ {
			batch := make([][]byte, bs)
			for j := range batch {
				switch r := rng.Intn(20); {
				case r < 12:
					batch[j] = stored[rng.Intn(len(stored))]
				case r < 17:
					batch[j] = absent[rng.Intn(len(absent))]
				case r == 17:
					batch[j] = batch[rng.Intn(j+1)] // duplicate (or nil: the empty key)
				case r == 18:
					batch[j] = []byte{}
				default:
					batch[j] = tooLong
				}
			}
			vals := make([]uint64, bs)
			found := make([]bool, bs)
			for j := range vals {
				vals[j], found[j] = ^uint64(0), j%2 == 0 // stale caller memory
			}
			tr.MultiGet(batch, vals, found)
			for j, k := range batch {
				wv, wok := tr.Get(k)
				if found[j] != wok || vals[j] != wv {
					t.Fatalf("batch %d round %d: MultiGet[%d] (len %d) = %d,%v; Get = %d,%v",
						bs, round, j, len(k), vals[j], found[j], wv, wok)
				}
			}
		}
	}
}

// TestConcurrentMultiGetSlotReuse races MultiGet readers with one writer
// that deletes and re-inserts the same keys in pairs — each re-insert takes
// the slot the other key just freed, so a leaf a reader staged two rounds
// ago may now name another key's record — with a per-key increasing value,
// and that inserts fresh keys until the table has resized twice. Every (found, val) a reader sees must be
// a value that key actually held between the call's start and its end.
func TestConcurrentMultiGetSlotReuse(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 10, AutoResize: true})
	const churn = 256
	key := func(id int) []byte { return keys.Uint64Key(uint64(id)*0x9e3779b97f4a7c15 | 1) }
	val := func(id int, ver uint64) uint64 { return uint64(id)<<32 | ver }
	// started[id] is bumped before the writer touches key id's next value,
	// settled[id] after that value is in: a reader that loads settled before
	// its call and started after it brackets every version it may see.
	var started, settled [churn]atomic.Uint64
	for id := 0; id < churn; id++ {
		mustSet(t, tr, key(id), val(id, 0))
	}
	gen0 := tr.gen.Load()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(54))
		for fresh := uint64(0); !stop.Load(); fresh++ {
			// The free list is LIFO: deleting a then b and re-inserting in
			// the same order hands each key the other's old slot.
			a := rng.Intn(churn)
			pair := [2]int{a, (a + 1 + rng.Intn(churn-1)) % churn}
			var ver [2]uint64
			for i, id := range pair {
				ver[i] = started[id].Add(1)
				tr.Delete(key(id))
			}
			for i, id := range pair {
				if _, err := tr.Set(key(id), val(id, ver[i])); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				settled[id].Store(ver[i])
			}
			if tr.gen.Load() < gen0+2 { // grow through two resizes, then only churn
				k := keys.Uint64Key(fresh<<1 | 1<<63)
				if _, err := tr.Set(k, fresh); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}
	}()

	readers := 2
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + r)))
			const bs = 64
			batch := make([][]byte, bs)
			ids := make([]int, bs)
			lo := make([]uint64, bs)
			vals := make([]uint64, bs)
			found := make([]bool, bs)
			for !stop.Load() {
				for j := range batch {
					ids[j] = rng.Intn(churn)
					batch[j] = key(ids[j])
					lo[j] = settled[ids[j]].Load()
				}
				tr.MultiGet(batch, vals, found)
				for j, id := range ids {
					if !found[j] {
						continue // caught between the Delete and the Set
					}
					hi := started[id].Load()
					if gotID, ver := int(vals[j]>>32), vals[j]&(1<<32-1); gotID != id || ver < lo[j] || ver > hi {
						errs <- errFmt("key %d: MultiGet returned key %d's version %d, want key %d in [%d, %d]",
							id, gotID, ver, id, lo[j], hi)
						return
					}
				}
			}
		}(r)
	}

	timeout := 3 * time.Second
	if testing.Short() {
		timeout = 500 * time.Millisecond
	}
	select {
	case err := <-errs:
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(timeout):
		stop.Store(true)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if !testing.Short() && tr.gen.Load() < gen0+2 {
		t.Fatalf("the writer tripped %d resizes, want 2", tr.gen.Load()-gen0)
	}
	checkInv(t, tr)
}

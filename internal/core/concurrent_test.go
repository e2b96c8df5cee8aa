package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keys"
)

func TestConcurrentInserts(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 15, AutoResize: true})
	workers := runtime.GOMAXPROCS(0)
	perWorker := 4000
	if testing.Short() {
		perWorker = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := keys.Uint64Key(uint64(w)<<48 | uint64(rng.Int63n(1<<40)))
				if _, err := tr.Set(k, uint64(w)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkInv(t, tr)
	// All inserted keys must be present.
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWorker; i++ {
			k := keys.Uint64Key(uint64(w)<<48 | uint64(rng.Int63n(1<<40)))
			if _, ok := tr.Get(k); !ok {
				t.Fatalf("key from worker %d missing", w)
			}
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 14, AutoResize: true})
	// Stable keys that are never touched by writers.
	const stable = 2000
	for i := 0; i < stable; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*2+1), uint64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers insert and delete disjoint churn keys.
	writers := 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []uint64
			for !stop.Load() {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					v := uint64(w+1)<<50 | uint64(rng.Int63n(1<<30))*2
					if _, err := tr.Set(keys.Uint64Key(v), v); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
					mine = append(mine, v)
				} else {
					i := rng.Intn(len(mine))
					tr.Delete(keys.Uint64Key(mine[i]))
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
	}

	// Readers verify the stable keys continuously.
	readers := 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !stop.Load() {
				i := rng.Intn(stable)
				v, ok := tr.Get(keys.Uint64Key(uint64(i)*2 + 1))
				if !ok || v != uint64(i) {
					errs <- errFmt("stable key %d: got %d,%v", i, v, ok)
					return
				}
			}
		}(r)
	}

	// Scanners iterate and check ordering invariants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			it, err := tr.Seek(nil)
			if err != nil {
				errs <- err
				return
			}
			var prev []byte
			n := 0
			for it.Valid() && n < 3000 {
				if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
					errs <- errFmt("scan order violation: %x >= %x", prev, it.Key())
					return
				}
				prev = append(prev[:0], it.Key()...)
				n++
				it.Next()
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		runtime.Gosched()
	}
	// Let the workers churn for a bit of wall time.
	for i := 0; i < 50; i++ {
		if _, ok := tr.Get(keys.Uint64Key(3)); !ok {
			t.Fatal("stable key lost")
		}
		runtime.Gosched()
	}
	stop.Store(true)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	checkInv(t, tr)
	for i := 0; i < stable; i++ {
		if v, ok := tr.Get(keys.Uint64Key(uint64(i)*2 + 1)); !ok || v != uint64(i) {
			t.Fatalf("stable key %d lost after churn", i)
		}
	}
}

func TestConcurrentDisjointDeletes(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 14, AutoResize: true})
	n := 20000
	if testing.Short() {
		n = 4000
	}
	for i := 0; i < n; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)), uint64(i))
	}
	workers := 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if !tr.Delete(keys.Uint64Key(uint64(i))) {
					t.Errorf("delete %d failed", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after concurrent delete of all", tr.Len())
	}
	checkInv(t, tr)
}

func TestConcurrentSameKeyUpserts(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 10, AutoResize: true})
	const hotKeys = 16
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := keys.Uint64Key(uint64(rng.Intn(hotKeys)))
				if _, err := tr.Set(k, uint64(w)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkInv(t, tr)
	if tr.Len() != hotKeys {
		t.Fatalf("Len = %d, want %d", tr.Len(), hotKeys)
	}
}

// TestConcurrentMinMaxRecord races Max and Min readers with a writer that
// keeps deleting the current maximum and minimum and inserting a new
// extreme key in its place, each value encoding its key. The record free
// list hands the new key the slot its victim just released, so a reader that
// reads the extreme leaf's key and value without re-validating the leaf
// pairs one key with the other's value.
func TestConcurrentMinMaxRecord(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 10, AutoResize: true})
	val := func(k []byte) uint64 { return ^keys.Uint64FromKey(k) }
	const mid = 1 << 62
	for i := uint64(0); i < 256; i++ {
		k := keys.Uint64Key(mid + i<<20)
		mustSet(t, tr, k, val(k))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hi, lo := uint64(mid+1<<40), uint64(mid-1)
		for !stop.Load() {
			for _, side := range []struct {
				extreme func() ([]byte, uint64, bool)
				next    *uint64
				step    uint64
			}{{tr.Max, &hi, 1}, {tr.Min, &lo, ^uint64(0)}} {
				k, _, ok := side.extreme()
				if !ok {
					t.Error("extreme of a non-empty trie not found")
					return
				}
				tr.Delete(k)
				*side.next += side.step
				nk := keys.Uint64Key(*side.next)
				if _, err := tr.Set(nk, val(nk)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}
	}()

	errs := make(chan error, 2)
	for r, extreme := range []func() ([]byte, uint64, bool){tr.Max, tr.Min} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k, v, ok := extreme()
				if !ok {
					errs <- errFmt("reader %d: extreme of a non-empty trie not found", r)
					return
				}
				if len(k) != 8 || v != val(k) {
					errs <- errFmt("reader %d: key %x returned with value %x, which is key %x's", r, k, v, ^v)
					return
				}
			}
		}()
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
	checkInv(t, tr)
}

// TestLookupsWaitOutHeldSeqlock holds the seqlock of one key's leaf bucket
// the way a writer does, then starts a Get, a MultiGet batch containing the
// key, and a cursor Next from the key's predecessor onto that leaf. Each
// must wait for the release and then return the key's value: none may
// return while the lock is held, and none may return a miss or another
// value.
func TestLookupsWaitOutHeldSeqlock(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12})
	var sorted [][]byte
	for i := uint64(0); i < 2000; i++ {
		k := keys.Uint64Key(i << 40)
		mustSet(t, tr, k, i)
		sorted = append(sorted, k)
	}
	tbl := tr.tbl.Load()
	leafOf := func(k []byte) entryRef {
		_, st := tr.searchPath(tbl, keys.AppendSymbols(nil, k), nil)
		if st.outcome != soLeaf {
			t.Fatalf("key %x: search outcome %d, want a leaf", k, st.outcome)
		}
		return st.terminal().ref
	}
	_, rootRef, ok := tr.tryFindRoot(tbl)
	if !ok {
		t.Fatal("root not found")
	}
	// A key whose leaf shares its bucket with neither the root nor the
	// predecessor's leaf: the lock then stalls only the probes for the
	// leaf itself, including the cursor's next-leaf locator.
	i := 1
	for ; i < len(sorted); i++ {
		b := leafOf(sorted[i]).bucket
		if b != rootRef.bucket && b != leafOf(sorted[i-1]).bucket {
			break
		}
	}
	if i == len(sorted) {
		t.Fatal("no key with a leaf bucket of its own")
	}
	k, want := sorted[i], uint64(i)
	cur := tr.NewCursor()
	if !cur.Seek(sorted[i-1]) || !bytes.Equal(cur.Key(), sorted[i-1]) {
		t.Fatalf("cursor did not land on the predecessor %x", sorted[i-1])
	}

	ref := leafOf(k)
	if !tbl.tryLock(ref.bucket, ref.ver) {
		t.Fatal("could not lock the leaf's bucket")
	}
	var released atomic.Bool
	type result struct {
		op    string
		val   uint64
		hit   bool
		early bool
	}
	results := make(chan result, 3)
	go func() {
		v, ok := tr.Get(k)
		results <- result{"Get", v, ok, !released.Load()}
	}()
	go func() {
		batch := [][]byte{sorted[0], k, sorted[len(sorted)-1]}
		vals := make([]uint64, len(batch))
		found := make([]bool, len(batch))
		tr.MultiGet(batch, vals, found)
		results <- result{"MultiGet", vals[1], found[1], !released.Load()}
	}()
	go func() {
		ok := cur.Next() && bytes.Equal(cur.Key(), k)
		results <- result{"cursor Next", cur.Value(), ok, !released.Load()}
	}()
	time.Sleep(time.Millisecond)
	released.Store(true)
	tbl.unlock(ref.bucket, ref.ver, true)
	for n := 0; n < 3; n++ {
		r := <-results
		switch {
		case r.early:
			t.Errorf("%s returned (%d, %v) while the leaf's bucket was locked", r.op, r.val, r.hit)
		case !r.hit || r.val != want:
			t.Errorf("%s = (%d, %v), want (%d, true)", r.op, r.val, r.hit, want)
		}
	}
}

func errFmt(format string, args ...any) error { return fmt.Errorf(format, args...) }

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

func newTestTrie(capacity int) *Trie {
	return New(Config{CapacityHint: capacity, AutoResize: true})
}

func TestEmptyTrie(t *testing.T) {
	tr := newTestTrie(16)
	if tr.Len() != 0 {
		t.Fatal("new trie not empty")
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("Get on empty trie found a key")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty trie")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty trie")
	}
	it, err := tr.Seek(nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("iterator valid on empty trie")
	}
}

func TestSingleKey(t *testing.T) {
	tr := newTestTrie(16)
	if _, err := tr.Set([]byte("hello"), 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get([]byte("hello")); !ok || v != 42 {
		t.Fatalf("Get = %d,%v want 42,true", v, ok)
	}
	if _, ok := tr.Get([]byte("hellp")); ok {
		t.Fatal("found absent key")
	}
	if _, ok := tr.Get([]byte("hell")); ok {
		t.Fatal("found absent prefix key")
	}
	if _, ok := tr.Get([]byte("helloo")); ok {
		t.Fatal("found absent extension key")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	k, v, ok := tr.Min()
	if !ok || string(k) != "hello" || v != 42 {
		t.Fatalf("Min = %q,%d,%v", k, v, ok)
	}
	k, v, ok = tr.Max()
	if !ok || string(k) != "hello" || v != 42 {
		t.Fatalf("Max = %q,%d,%v", k, v, ok)
	}
}

func TestUpdateValue(t *testing.T) {
	tr := newTestTrie(16)
	mustSet(t, tr, []byte("k"), 1)
	mustSet(t, tr, []byte("k"), 2)
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after update", tr.Len())
	}
}

func TestPrefixPairs(t *testing.T) {
	// Keys where one is a byte-prefix of the other exercise the terminator
	// symbol handling.
	tr := newTestTrie(64)
	pairs := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"),
		[]byte(""), []byte("b"), []byte("ba"),
	}
	for i, k := range pairs {
		mustSet(t, tr, k, uint64(i))
	}
	for i, k := range pairs {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v want %d", k, v, ok, i)
		}
	}
	checkOrder(t, tr, pairs)
}

func TestSharedPrefixChains(t *testing.T) {
	// Long shared prefixes force jump-node creation and splitting.
	tr := newTestTrie(128)
	base := "this-is-a-very-long-common-prefix-shared-by-all-keys/"
	var ks [][]byte
	for i := 0; i < 40; i++ {
		ks = append(ks, []byte(fmt.Sprintf("%s%04d", base, i*7)))
	}
	for i, k := range ks {
		mustSet(t, tr, k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v want %d", k, v, ok, i)
		}
	}
	checkOrder(t, tr, ks)
	st := tr.Stats()
	if st.JumpNodes == 0 {
		t.Fatal("expected jump nodes for long common prefixes")
	}
}

func TestJumpSplitDeep(t *testing.T) {
	// Insert a key, then keys diverging at every position of its jump chain.
	tr := newTestTrie(512)
	long := bytes.Repeat([]byte("x"), 30)
	mustSet(t, tr, long, 0)
	var ks [][]byte
	ks = append(ks, long)
	for i := 1; i < len(long); i++ {
		k := append([]byte(nil), long[:i]...)
		k = append(k, 'a')
		mustSet(t, tr, k, uint64(i))
		ks = append(ks, k)
	}
	for i, k := range ks {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v want %d", k, v, ok, i)
		}
	}
	checkOrder(t, tr, ks)
}

func TestRandomModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newTestTrie(512)
	model := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		k := randKey(rng, 1+rng.Intn(24))
		v := rng.Uint64()
		mustSet(t, tr, k, v)
		model[string(k)] = v
		if i%97 == 0 {
			// Occasionally update an existing key.
			for mk := range model {
				mustSet(t, tr, []byte(mk), v+1)
				model[mk] = v + 1
				break
			}
		}
	}
	verifyModel(t, tr, model)
}

func TestFixed8ByteKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := newTestTrie(4096)
	model := map[string]uint64{}
	for i := 0; i < 20000; i++ {
		k := keys.Uint64Key(rng.Uint64())
		model[string(k)] = uint64(i)
		mustSet(t, tr, k, uint64(i))
	}
	verifyModel(t, tr, model)
	st := tr.Stats()
	if st.NodesPerKey > 2.0 {
		t.Fatalf("nodes/key = %.2f, expected < 2 for random keys", st.NodesPerKey)
	}
}

func TestSequentialKeys(t *testing.T) {
	tr := newTestTrie(4096)
	model := map[string]uint64{}
	for i := 0; i < 10000; i++ {
		k := keys.Uint64Key(uint64(i))
		model[string(k)] = uint64(i)
		mustSet(t, tr, k, uint64(i))
	}
	verifyModel(t, tr, model)
}

func TestSeekSemantics(t *testing.T) {
	tr := newTestTrie(64)
	for _, k := range []string{"b", "d", "f"} {
		mustSet(t, tr, []byte(k), uint64(k[0]))
	}
	cases := []struct {
		seek string
		want string // "" = invalid
	}{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"d", "d"},
		{"e", "f"}, {"f", "f"}, {"g", ""},
	}
	for _, c := range cases {
		it, err := tr.Seek([]byte(c.seek))
		if err != nil {
			t.Fatal(err)
		}
		if c.want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%q) valid at %q, want end", c.seek, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != c.want {
			t.Fatalf("Seek(%q) = %q, want %q", c.seek, it.Key(), c.want)
		}
	}
}

func TestPredecessorSuccessor(t *testing.T) {
	tr := newTestTrie(256)
	var ks [][]byte
	for i := 0; i < 100; i++ {
		k := keys.Uint64Key(uint64(i * 10))
		ks = append(ks, k)
		mustSet(t, tr, k, uint64(i))
	}
	for i := 0; i < 1000; i++ {
		probe := keys.Uint64Key(uint64(i))
		wantPred := -1
		for j := range ks {
			if bytes.Compare(ks[j], probe) <= 0 {
				wantPred = j
			}
		}
		k, _, ok := tr.Predecessor(probe)
		if wantPred < 0 {
			if ok {
				t.Fatalf("Predecessor(%d) = %x, want none", i, k)
			}
		} else if !ok || !bytes.Equal(k, ks[wantPred]) {
			t.Fatalf("Predecessor(%d) = %x,%v want %x", i, k, ok, ks[wantPred])
		}
		wantSucc := -1
		for j := len(ks) - 1; j >= 0; j-- {
			if bytes.Compare(ks[j], probe) >= 0 {
				wantSucc = j
			}
		}
		k, _, ok = tr.Successor(probe)
		if wantSucc < 0 {
			if ok {
				t.Fatalf("Successor(%d) = %x, want none", i, k)
			}
		} else if !ok || !bytes.Equal(k, ks[wantSucc]) {
			t.Fatalf("Successor(%d) = %x,%v want %x", i, k, ok, ks[wantSucc])
		}
	}
}

func TestScanCount(t *testing.T) {
	tr := newTestTrie(256)
	for i := 0; i < 100; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)), uint64(i))
	}
	var got []uint64
	n, err := tr.Scan(keys.Uint64Key(10), 25, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if err != nil || n != 25 {
		t.Fatalf("Scan n=%d err=%v", n, err)
	}
	for i, v := range got {
		if v != uint64(10+i) {
			t.Fatalf("scan[%d] = %d, want %d", i, v, 10+i)
		}
	}
	// Early stop: fn rejects v=5, so keys 0..5 are visited.
	n, _ = tr.Scan(nil, 100, func(k []byte, v uint64) bool { return v < 5 })
	if n != 6 {
		t.Fatalf("early-stop scan visited %d, want 6", n)
	}
}

// TestResizeGrowth grows a trie from a tiny table through many resizes.
// Every rebuild places entries through the eviction search, so the
// invariants are checked after each resize, not only at the end.
func TestResizeGrowth(t *testing.T) {
	tr := New(Config{CapacityHint: 8, AutoResize: true})
	model := map[string]uint64{}
	rng := rand.New(rand.NewSource(3))
	gen := tr.gen.Load()
	for i := 0; i < 3000; i++ {
		k := randKey(rng, 1+rng.Intn(16))
		model[string(k)] = uint64(i)
		mustSet(t, tr, k, uint64(i))
		if g := tr.gen.Load(); g != gen {
			gen = g
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after resize %d (key %d): %v", g, i, err)
			}
		}
	}
	verifyModel(t, tr, model)
	if gen == 0 {
		t.Fatal("expected at least one resize")
	}
}

// TestTableFullWithoutResize fills a fixed-size table until an insert fails.
// The failing insert has run makeRoom's eviction chains; none may be left
// half applied, so every key accepted before it still reads back and the
// invariants hold.
func TestTableFullWithoutResize(t *testing.T) {
	tr := New(Config{CapacityHint: 8, AutoResize: false})
	model := map[string]uint64{}
	rng := rand.New(rand.NewSource(4))
	var sawFull bool
	for i := 0; i < 5000; i++ {
		k := randKey(rng, 8)
		_, err := tr.Set(k, uint64(i))
		if err == ErrTableFull {
			sawFull = true
			break
		}
		must(t, err)
		model[string(k)] = uint64(i)
	}
	if !sawFull {
		t.Fatal("expected ErrTableFull on a fixed-size table")
	}
	verifyModel(t, tr, model)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableLeafList(t *testing.T) {
	tr := New(Config{CapacityHint: 256, DisableLeafList: true, AutoResize: true})
	rng := rand.New(rand.NewSource(5))
	model := map[string]uint64{}
	for i := 0; i < 2000; i++ {
		k := randKey(rng, 8)
		model[string(k)] = uint64(i)
		mustSet(t, tr, k, uint64(i))
	}
	for k, v := range model {
		if got, ok := tr.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%x) = %d,%v want %d", k, got, ok, v)
		}
	}
	if _, err := tr.Seek(nil); err != ErrScansDisabled {
		t.Fatalf("Seek err = %v, want ErrScansDisabled", err)
	}
}

func TestStats(t *testing.T) {
	tr := newTestTrie(4096)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		mustSet(t, tr, keys.Uint64Key(rng.Uint64()), uint64(i))
	}
	st := tr.Stats()
	if st.Leaves != tr.Len() {
		t.Fatalf("leaves %d != keys %d", st.Leaves, tr.Len())
	}
	if st.BytesPerKey <= 0 || st.PaperBytesPerKey <= 0 {
		t.Fatal("memory accounting missing")
	}
	if st.LoadFactor <= 0 || st.LoadFactor > 1 {
		t.Fatalf("load factor %f out of range", st.LoadFactor)
	}
}

// --- helpers ---

func mustSet(t *testing.T, tr *Trie, k []byte, v uint64) {
	t.Helper()
	if _, err := tr.Set(k, v); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func randKey(rng *rand.Rand, n int) []byte {
	k := make([]byte, n)
	rng.Read(k)
	return k
}

// checkOrder verifies a full iteration visits exactly ks in sorted order.
func checkOrder(t *testing.T, tr *Trie, ks [][]byte) {
	t.Helper()
	sorted := make([][]byte, len(ks))
	copy(sorted, ks)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	it, err := tr.Seek(nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Valid() {
		if i >= len(sorted) {
			t.Fatalf("iteration yielded extra key %q", it.Key())
		}
		if !bytes.Equal(it.Key(), sorted[i]) {
			t.Fatalf("iteration[%d] = %q, want %q", i, it.Key(), sorted[i])
		}
		i++
		it.Next()
	}
	if i != len(sorted) {
		t.Fatalf("iteration yielded %d keys, want %d", i, len(sorted))
	}
}

func verifyModel(t *testing.T, tr *Trie, model map[string]uint64) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%x) = %d,%v want %d", k, got, ok, v)
		}
	}
	var sorted []string
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	it, err := tr.Seek(nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Valid() {
		if i >= len(sorted) {
			t.Fatalf("extra key %x in iteration", it.Key())
		}
		if string(it.Key()) != sorted[i] {
			t.Fatalf("iteration[%d] = %x, want %x", i, it.Key(), sorted[i])
		}
		if it.Value() != model[sorted[i]] {
			t.Fatalf("iteration[%d] value = %d, want %d", i, it.Value(), model[sorted[i]])
		}
		i++
		it.Next()
	}
	if i != len(sorted) {
		t.Fatalf("iteration yielded %d keys, want %d", i, len(sorted))
	}
}

package cuckootrie_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	cuckootrie "repro"
)

// TestShortKeyChurnHeap holds 100 k live 8-byte keys and churns them: each
// op deletes a random live key and inserts a fresh one. A short key lives in
// its leaf's key word and a deleted key's value slot is reused, so churn
// that keeps the key count steady must keep the heap steady too: after GC
// it may not exceed 1.25× its size after the load.
func TestShortKeyChurnHeap(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("a million writes take minutes under the race detector")
	}
	const live, ops = 100_000, 1_000_000
	rng := rand.New(rand.NewSource(44))
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: live, AutoResize: true})
	var k [8]byte
	ks := make([]uint64, live)
	for i := range ks {
		ks[i] = rng.Uint64()
		binary.BigEndian.PutUint64(k[:], ks[i])
		mustInsert(t, trie, k[:], uint64(i))
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	loaded := heap()
	for i := 0; i < ops; i++ {
		j := rng.Intn(live)
		binary.BigEndian.PutUint64(k[:], ks[j])
		if !trie.Delete(k[:]) {
			t.Fatalf("op %d: live key %x not deleted", i, k)
		}
		ks[j] = rng.Uint64()
		binary.BigEndian.PutUint64(k[:], ks[j])
		mustInsert(t, trie, k[:], uint64(i))
	}
	if trie.Len() != live {
		t.Fatalf("Len = %d after churn, want %d", trie.Len(), live)
	}
	churned := heap()
	runtime.KeepAlive(trie) // and ks: both must be live at both measurements
	runtime.KeepAlive(ks)
	if churned > loaded*5/4 {
		t.Errorf("heap grew from %d B after the load to %d B after %d churn ops (%.1f B/op)",
			loaded, churned, ops, float64(churned-loaded)/ops)
	}
}

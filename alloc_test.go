package cuckootrie_test

// The read paths' zero-allocation contract as a test, so a regression fails
// tier-1 instead of waiting for someone to read a benchmark column.

import (
	"testing"

	cuckootrie "repro"
	"repro/internal/dataset"
)

func TestReadPathsZeroAlloc(t *testing.T) {
	const n = 1 << 12
	all := dataset.Generate(dataset.Rand8, 2*n, 13)
	ks, absent := all[:n], all[n:]
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: n, AutoResize: true})
	for i, k := range ks {
		if _, err := trie.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		trie.Get(ks[i%n])
		trie.Get(absent[i%n])
		i++
	}); a != 0 {
		t.Errorf("Get: %v allocs per hit+miss pair, want 0", a)
	}

	// Hits and misses mixed; AllocsPerRun's own warm-up call fills the
	// pooled batch scratch.
	const batch = 64
	kbuf := make([][]byte, batch)
	vals := make([]uint64, batch)
	found := make([]bool, batch)
	if a := testing.AllocsPerRun(200, func() {
		for j := range kbuf {
			if j%4 == 3 {
				kbuf[j] = absent[(i+j)%n]
			} else {
				kbuf[j] = ks[(i+j)%n]
			}
		}
		trie.MultiGet(kbuf, vals, found)
		i += batch
	}); a != 0 && !raceDetectorEnabled {
		t.Errorf("MultiGet: %v allocs per %d-key batch, want 0", a, batch)
	}
	for j := range kbuf {
		if found[j] != (j%4 != 3) {
			t.Fatalf("MultiGet[%d]: found = %v", j, found[j])
		}
	}

	c := trie.NewCursor()
	defer c.Close()
	if !c.Seek(nil) {
		t.Fatal("Seek(nil) on a loaded trie found nothing")
	}
	if a := testing.AllocsPerRun(n/2, func() {
		if !c.Next() {
			t.Fatal("cursor ran out early")
		}
	}); a != 0 {
		t.Errorf("cursor Next: %v allocs per step, want 0", a)
	}
}

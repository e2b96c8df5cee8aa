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

// The writers' contract: an update, an insert and a delete allocate
// nothing. That holds whether the new entry finds a free slot or the insert
// first runs a cuckoo eviction search, whose scratch is pooled. Insert and
// delete plans come from pools too, so those assertions are skipped under
// -race, which drops pooled objects at random.
func TestWritePathsAllocs(t *testing.T) {
	const n, runs = 1 << 12, 200
	all := dataset.Generate(dataset.Rand8, n+runs+1, 17)
	ks, fresh := all[:n], all[n:]
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: 2 * n, AutoResize: true})
	for i, k := range ks {
		if _, err := trie.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		if added, err := trie.Set(ks[i%n], uint64(i)); added || err != nil {
			t.Fatalf("update of a loaded key: added=%v err=%v", added, err)
		}
		i++
	}); a != 0 {
		t.Errorf("Set update: %v allocs per op, want 0", a)
	}

	j := 0
	if a := testing.AllocsPerRun(runs, func() {
		mustInsert(t, trie, fresh[j], uint64(j))
		j++
	}); a != 0 && !raceDetectorEnabled {
		t.Errorf("Set insert: %v allocs per op, want 0", a)
	}
	j = 0
	if a := testing.AllocsPerRun(runs, func() {
		if !trie.Delete(fresh[j]) {
			t.Fatalf("Delete(%x) found nothing", fresh[j])
		}
		j++
	}); a != 0 && !raceDetectorEnabled {
		t.Errorf("Delete: %v allocs per op, want 0", a)
	}
	if trie.Len() != n {
		t.Fatalf("Len = %d after inserting and deleting %d keys, want %d", trie.Len(), runs+1, n)
	}
}

// TestInsertWithEvictionAllocs is the insert case of TestWritePathsAllocs on
// a nearly full fixed-size table, where most inserts find both candidate
// buckets full and relocate entries first. A first table is filled until an
// insert fails; a fresh one replays the same keys up to runs+1 short of
// that point, so the measured inserts are the last ones that succeeded.
func TestInsertWithEvictionAllocs(t *testing.T) {
	const hint, runs = 1 << 10, 100
	cfg := cuckootrie.Config{CapacityHint: hint}
	ks := dataset.Generate(dataset.Rand8, 8*hint, 19)
	probe := cuckootrie.New(cfg)
	full := -1
	for i, k := range ks {
		if _, err := probe.Set(k, uint64(i)); err == cuckootrie.ErrTableFull {
			full = i
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if full < 2*(runs+1) {
		t.Fatalf("fixed table filled after %d keys, want >= %d", full, 2*(runs+1))
	}

	trie := cuckootrie.New(cfg)
	start := full - runs - 1
	for i, k := range ks[:start] {
		mustInsert(t, trie, k, uint64(i))
	}
	j := start
	if a := testing.AllocsPerRun(runs, func() {
		mustInsert(t, trie, ks[j], uint64(j))
		j++
	}); a != 0 && !raceDetectorEnabled {
		t.Errorf("Set insert into a nearly full table: %v allocs per op, want 0", a)
	}
	if lf := trie.Stats().LoadFactor; lf < 0.5 {
		t.Errorf("load factor %.2f after the measured inserts: the table is not nearly full", lf)
	}
	if err := trie.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustInsert(t *testing.T, trie *cuckootrie.Trie, k []byte, v uint64) {
	t.Helper()
	if added, err := trie.Set(k, v); !added || err != nil {
		t.Fatalf("Set(%x): added=%v err=%v", k, added, err)
	}
}

package core

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// TestTableGeometry pins the table's memory: 256-byte groups of three
// buckets, so Stats().TableBytes is ceil(S/3) × 256, with every group
// 64-byte aligned and on a single 4 KiB page. Tables built by New and by
// resizes are both checked.
func TestTableGeometry(t *testing.T) {
	check := func(tr *Trie) {
		t.Helper()
		tb := tr.tbl.Load()
		s := tr.Stats()
		if want := int64((s.Buckets + 2) / 3 * 256); s.TableBytes != want {
			t.Fatalf("%d buckets: TableBytes %d, want %d", s.Buckets, s.TableBytes, want)
		}
		for g := 0; g < len(tb.words); g += groupBytes / 8 {
			start := uintptr(unsafe.Pointer(&tb.words[g]))
			if start%64 != 0 || start/4096 != (start+255)/4096 {
				t.Fatalf("%d buckets: group %d at %#x is not 64-byte aligned on one page", s.Buckets, g/(groupBytes/8), start)
			}
		}
	}
	for _, hint := range []int{1, 5000, 200000} {
		check(New(Config{CapacityHint: hint}))
	}
	tr := New(Config{AutoResize: true})
	for i, k := range dataset.Generate(dataset.Rand8, 20000, 3) {
		mustSet(t, tr, k, uint64(i))
	}
	if tr.Stats().Buckets == bucketsFor(1024) {
		t.Fatal("20 k keys did not resize a default table")
	}
	check(tr)
}

// TestTableSizeCap: word 2 holds a locator hash in 32 bits, so tables stop
// at maxBuckets. Sizing clamps to it, and a resize past it reports
// ErrTableFull instead of panicking; the table at the cap is never
// allocated.
func TestTableSizeCap(t *testing.T) {
	if maxBuckets*tagCount-1 > hashMask {
		t.Fatalf("a %d-bucket table's hashes overflow word 2's locator half", maxBuckets)
	}
	if got := bucketsFor(1 << 40); got != maxBuckets {
		t.Fatalf("bucketsFor(2^40 keys) = %d, want %d", got, maxBuckets)
	}
	tr := New(Config{AutoResize: true})
	full := &table{hasher: hasher{buckets: maxBuckets, mask: maxBuckets - 1}}
	tr.tbl.Store(full)
	if err := tr.resize(full); !errors.Is(err, ErrTableFull) {
		t.Fatalf("resize past %d buckets: err %v, want ErrTableFull", maxBuckets, err)
	}
}

// testLeaf is a leaf in its primary bucket with tag tag, for filling
// buckets by hand.
func testLeaf(tag uint8) node {
	n := node{w0: newWord0(kindLeaf, 1)}
	n.setIdentity(tag, true, 0)
	return n
}

// TestMakeRoomFreesARootSlot: a plan whose first placement reserved the
// last free slot of a bucket pair asks for room for its second, while the
// table still shows that slot free. makeRoom must free one more slot in
// the pair rather than find a root with space and relocate nothing.
func TestMakeRoomFreesARootSlot(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12})
	tb := tr.tbl.Load()
	root, _, _ := tb.bucketsOf(0)
	var h, b1, b2 uint64
	for h = 1 << 10; ; h++ {
		b1, b2, _ = tb.bucketsOf(h)
		if b1 != root && b2 != root {
			break
		}
	}
	// Fill b1 to three entries and b2 to four, each in its primary bucket
	// with a tag whose alternate bucket is empty.
	fill := func(b uint64, n int) {
		slot := 0
		for tag := uint8(0); slot < n && tag < tagCount; tag++ {
			if alt := tb.altBucket(b, tag, true); alt == root || alt == b1 || alt == b2 {
				continue
			}
			tb.writeSlot(b, slot, testLeaf(tag))
			slot++
		}
		if slot < n {
			t.Fatalf("bucket %d: only %d movable tags", b, slot)
		}
	}
	fill(b1, entriesPerBucket-1)
	fill(b2, entriesPerBucket)
	free := func() int {
		n := 0
		for _, b := range []uint64{b1, b2} {
			var w0s [entriesPerBucket]uint64
			if _, ok := tb.loadHeads(b, &w0s); !ok {
				t.Fatalf("bucket %d unreadable", b)
			}
			for _, w := range w0s {
				if rawKind(w) == kindEmpty {
					n++
				}
			}
		}
		return n
	}
	before := free()
	if !tr.makeRoom(tb, roomRequest{h: h}) {
		t.Fatal("makeRoom found no chain")
	}
	if after := free(); after != before+1 {
		t.Fatalf("free slots in the pair: %d before makeRoom, %d after; want %d", before, after, before+1)
	}
}

// TestMakeRoomSkipsReservedSlots: a plan whose earlier placement reserved
// the one free slot of bucket x asks for room for a later placement whose
// candidate buckets are full, and x is the first bucket the eviction search
// reaches. The chain must not end in x: moving an entry there takes the
// reserved slot, the plan's next attempt asks for room for the earlier
// placement, and the two requests move one entry back and forth until the
// insert gives up and the table resizes.
func TestMakeRoomSkipsReservedSlots(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12})
	tb := tr.tbl.Load()
	root, _, _ := tb.bucketsOf(0)
	var h, b1, b2 uint64
	for h = 1 << 10; ; h++ {
		b1, b2, _ = tb.bucketsOf(h)
		if b1 != root && b2 != root {
			break
		}
	}
	// Every bucket written below, and the alternate of every entry written,
	// is distinct, so the search's second level is empty buckets.
	taken := map[uint64]bool{root: true, b1: true, b2: true}
	fill := func(b uint64, n int) []uint64 {
		var alts []uint64
		for tag := uint8(0); len(alts) < n && tag < tagCount; tag++ {
			alt := tb.altBucket(b, tag, true)
			if taken[alt] {
				continue
			}
			taken[alt] = true
			tb.writeSlot(b, len(alts), testLeaf(tag))
			alts = append(alts, alt)
		}
		if len(alts) < n {
			t.Fatalf("bucket %d: only %d movable tags", b, len(alts))
		}
		return alts
	}
	level1 := append(fill(b1, entriesPerBucket), fill(b2, entriesPerBucket)...)
	x := level1[0]
	for _, b := range level1 {
		n := entriesPerBucket
		if b == x {
			n--
		}
		fill(b, n)
	}
	free := func(bs ...uint64) int {
		n := 0
		for _, b := range bs {
			var w0s [entriesPerBucket]uint64
			if _, ok := tb.loadHeads(b, &w0s); !ok {
				t.Fatalf("bucket %d unreadable", b)
			}
			for _, w := range w0s {
				if rawKind(w) == kindEmpty {
					n++
				}
			}
		}
		return n
	}
	if !tr.makeRoom(tb, roomRequest{h: h, reserved: []uint64{x}}) {
		t.Fatal("makeRoom found no chain")
	}
	if got := free(b1, b2); got != 1 {
		t.Fatalf("free slots in the pair after makeRoom: %d, want 1", got)
	}
	if got := free(x); got != 1 {
		t.Fatalf("reserved bucket %d has %d free slots after makeRoom, want 1", x, got)
	}
}

// TestGrowthFillsEachTable: a table grown from the default hint by random
// 8-byte keys holds at least 60% of its slots before it is replaced. It
// needs eviction chains that never end in a slot the failing insert
// reserved (TestMakeRoomSkipsReservedSlots); without that the 16384-bucket
// table gives up 44-54% full, at a key count that depends on the keys, so
// two loads of the same size can end a doubling apart.
func TestGrowthFillsEachTable(t *testing.T) {
	used := func(tb *table) int {
		n := 0
		for b := uint64(0); b < tb.buckets; b++ {
			head, _ := bucketAt(b)
			for i := 0; i < entriesPerBucket; i++ {
				if rawKind(uint64(*tb.u32(w0At(head, i)))) != kindEmpty {
					n++
				}
			}
		}
		return n
	}
	for seed := int64(1); seed <= 3; seed++ {
		tr := New(Config{AutoResize: true})
		for i, k := range dataset.Generate(dataset.Rand8, 40000, seed) {
			old := tr.tbl.Load()
			mustSet(t, tr, k, uint64(i))
			if tr.tbl.Load() == old {
				continue
			}
			if lf := float64(used(old)) / float64(old.buckets*entriesPerBucket); lf < 0.6 {
				t.Errorf("seed %d: the %d-bucket table grew at key %d, %.0f%% full", seed, old.buckets, i, 100*lf)
			}
		}
	}
}

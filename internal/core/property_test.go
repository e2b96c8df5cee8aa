package core

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// word0Layout lists word 0's fields and flags, for TestWord0FieldTable.
var word0Layout = []struct {
	name string
	f    field
}{
	{"kind", fKind}, {"tag", fTag}, {"primary", primaryBit}, {"lastSym", fLastSym},
	{"color", fColor}, {"parentColor", fParentColor}, {"parentIsJump", parentIsJumpBit},
	{"jumpLen", fJumpLen}, {"locColor", fLocColor}, {"childColor", fChildColor},
	{"hasNext", hasNextBit}, {"hasLoc", hasLocBit},
}

// TestWord0FieldTable: word 0's fields are contiguous, do not overlap and
// cover bits 0-31 exactly; setting one field to any value it holds changes
// no other bit of the node; and each match mask is the fields it names.
func TestWord0FieldTable(t *testing.T) {
	var all uint64
	for _, x := range word0Layout {
		m := uint64(x.f)
		if low := m >> bits.TrailingZeros64(m); m == 0 || low&(low+1) != 0 {
			t.Fatalf("%s: mask %#x is not one run of bits", x.name, m)
		}
		if all&m != 0 {
			t.Fatalf("%s overlaps another field: %#x", x.name, all&m)
		}
		all |= m
	}
	if all != 1<<32-1 {
		t.Fatalf("word 0's fields cover %#x, want bits 0-31", all)
	}

	f := func(w0 uint32, w1, w2 uint64, which, v uint8) bool {
		x := word0Layout[int(which)%len(word0Layout)]
		v &= uint8(uint64(x.f) >> bits.TrailingZeros64(uint64(x.f)))
		n := node{uint64(w0), w1, w2}
		if bits.OnesCount64(uint64(x.f)) == 1 {
			n.setFlag(uint64(x.f), v != 0)
		} else {
			n.set(x.f, v)
		}
		return x.f.get(n.w0) == uint64(v) && n.w0&^uint64(x.f) == uint64(w0)&^uint64(x.f) &&
			n.w1 == w1 && n.w2 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}

	for _, m := range []struct {
		name string
		mask uint64
		of   []field
	}{
		{"tagPrimaryMask", tagPrimaryMask, []field{fTag, primaryBit}},
		{"matchMaskByParent", matchMaskByParent, []field{fTag, primaryBit, fLastSym, fParentColor, parentIsJumpBit}},
		{"matchMaskByColor", matchMaskByColor, []field{fTag, primaryBit, fLastSym, fColor}},
		{"matchMaskByLoc", matchMaskByLoc, []field{fTag, primaryBit, fColor}},
	} {
		var want uint64
		for _, f := range m.of {
			want |= uint64(f)
		}
		if m.mask != want {
			t.Errorf("%s = %#x, want %#x", m.name, m.mask, want)
		}
	}
}

// Property: the hash function is peelable — h(x) is recoverable from
// (h(x·c), c) — which is what makes key elimination sound (§4.2). We verify
// the existence claim directly: step is injective in h for each fixed c.
func TestHashPeelable(t *testing.T) {
	hs := newHasher(1<<12, 42)
	domain := hs.buckets * tagCount
	f := func(h1, h2 uint64, c uint8) bool {
		a, b := h1%domain, h2%domain
		sym := c % 33
		if a == b {
			return true
		}
		// Distinct parent hashes must yield distinct child hashes.
		return hs.step(a, sym) != hs.step(b, sym)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: step stays within the hash domain.
func TestHashDomain(t *testing.T) {
	hs := newHasher(1<<10, 7)
	domain := hs.buckets * tagCount
	f := func(h uint64, c uint8) bool {
		return hs.step(h%domain, c%33) < domain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashOf inverts bucketsOf — an entry's full hash is recoverable
// from (bucket, tag, primary), which is what makes relocations possible
// without stored keys.
func TestHashOfInvertsBuckets(t *testing.T) {
	hs := newHasher(1<<12, 13)
	domain := hs.buckets * tagCount
	f := func(h uint64) bool {
		hh := h % domain
		b1, b2, tag := hs.bucketsOf(hh)
		return hs.hashOf(b1, tag, true) == hh && hs.hashOf(b2, tag, false) == hh &&
			hs.altBucket(b1, tag, true) == b2 && hs.altBucket(b2, tag, false) == b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random operation sequence leaves the trie equivalent to a
// reference model and structurally sound.
func TestRandomOpSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(Config{CapacityHint: 64, AutoResize: true})
		model := map[string]uint64{}
		var live []string
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert/update
				k := make([]byte, rng.Intn(10))
				rng.Read(k)
				v := rng.Uint64()
				if _, err := tr.Set(k, v); err != nil {
					return false
				}
				if _, ok := model[string(k)]; !ok {
					live = append(live, string(k))
				}
				model[string(k)] = v
			case 5, 6: // delete
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				k := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !tr.Delete([]byte(k)) {
					return false
				}
				delete(model, k)
			case 7: // lookup
				k := make([]byte, rng.Intn(10))
				rng.Read(k)
				v, ok := tr.Get(k)
				mv, mok := model[string(k)]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 8: // predecessor against the model
				k := make([]byte, rng.Intn(6))
				rng.Read(k)
				pk, _, ok := tr.Predecessor(k)
				var want string
				found := false
				for mk := range model {
					if mk <= string(k) && (!found || mk > want) {
						want, found = mk, true
					}
				}
				if ok != found || (ok && string(pk) != want) {
					return false
				}
			case 9: // full-order check
				var ks []string
				for mk := range model {
					ks = append(ks, mk)
				}
				sort.Strings(ks)
				it, err := tr.Seek(nil)
				if err != nil {
					return false
				}
				for _, want := range ks {
					if !it.Valid() || string(it.Key()) != want {
						return false
					}
					it.Next()
				}
				if it.Valid() {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: keys that differ only in their tail bytes (worst case for the
// symbol codec's padding) are stored and ordered correctly.
func TestTailByteKeys(t *testing.T) {
	f := func(base []byte, a, b uint8) bool {
		if len(base) > 20 {
			base = base[:20]
		}
		if a == b {
			return true
		}
		tr := New(Config{CapacityHint: 16, AutoResize: true})
		k1 := append(append([]byte(nil), base...), a)
		k2 := append(append([]byte(nil), base...), b)
		tr.Set(k1, 1)
		tr.Set(k2, 2)
		tr.Set(base, 3)
		if v, ok := tr.Get(k1); !ok || v != 1 {
			return false
		}
		if v, ok := tr.Get(k2); !ok || v != 2 {
			return false
		}
		minK, _, ok := tr.Min()
		if !ok || !bytes.Equal(minK, base) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symbol codec and trie agree on key ordering for arbitrary
// key pairs routed through a real trie.
func TestTrieOrderMatchesBytes(t *testing.T) {
	f := func(a, b, c []byte) bool {
		ks := [][]byte{a, b, c}
		tr := New(Config{CapacityHint: 16, AutoResize: true})
		uniq := map[string]bool{}
		for _, k := range ks {
			if len(k) > 32 {
				k = k[:32]
			}
			if _, err := tr.Set(k, 1); err != nil {
				return false
			}
			uniq[string(k)] = true
		}
		var want []string
		for k := range uniq {
			want = append(want, k)
		}
		sort.Strings(want)
		it, err := tr.Seek(nil)
		if err != nil {
			return false
		}
		for _, w := range want {
			if !it.Valid() || string(it.Key()) != w {
				return false
			}
			it.Next()
		}
		return !it.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sanity: NumSymbols consistent with SymbolAt panics guard.
func TestSymbolConsistency(t *testing.T) {
	f := func(k []byte) bool {
		if len(k) > 64 {
			k = k[:64]
		}
		n := keys.NumSymbols(k)
		for i := 0; i < n; i++ {
			s := keys.SymbolAt(k, i)
			if s > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

package keys

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNumSymbols(t *testing.T) {
	cases := []struct {
		n    int // key length in bytes
		want int // symbols incl. terminator
	}{
		{0, 1}, {1, 3}, {2, 5}, {3, 6}, {4, 8}, {5, 9}, {8, 14}, {10, 17}, {16, 27},
	}
	for _, c := range cases {
		k := make([]byte, c.n)
		if got := NumSymbols(k); got != c.want {
			t.Errorf("NumSymbols(len %d) = %d, want %d", c.n, got, c.want)
		}
		if got := DataSymbols(k); got != c.want-1 {
			t.Errorf("DataSymbols(len %d) = %d, want %d", c.n, got, c.want-1)
		}
	}
}

func TestSymbolAtKnown(t *testing.T) {
	// 0xFF 0x00 = bits 11111111 00000000 -> 11111 111|00 00000|0 pad
	k := []byte{0xff, 0x00}
	want := []byte{31 + MinData, 28 + MinData, 0 + MinData, 0 + MinData, Terminator}
	got := AppendSymbols(nil, k)
	if !bytes.Equal(got, want) {
		t.Fatalf("symbols(%x) = %v, want %v", k, got, want)
	}
}

func TestSymbolRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := make([]byte, rng.Intn(20))
		rng.Read(k)
		n := NumSymbols(k)
		for i := 0; i < n-1; i++ {
			s := SymbolAt(k, i)
			if s < MinData || s > MaxData {
				t.Fatalf("data symbol %d of %x out of range: %d", i, k, s)
			}
		}
		if SymbolAt(k, n-1) != Terminator {
			t.Fatalf("last symbol of %x is not terminator", k)
		}
	}
}

func TestSymbolAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	SymbolAt([]byte{1}, 99)
}

// Property: symbol-sequence order equals byte-lexicographic order.
func TestOrderPreservation(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return CompareSymbols(a, b) == bytes.Compare(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct keys yield distinct symbol sequences, and no sequence is
// a proper prefix of another.
func TestNoPrefixProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		sa := AppendSymbols(nil, a)
		sb := AppendSymbols(nil, b)
		if bytes.Equal(sa, sb) {
			return false
		}
		if len(sa) <= len(sb) && bytes.Equal(sa, sb[:len(sa)]) {
			return false
		}
		if len(sb) < len(sa) && bytes.Equal(sb, sa[:len(sb)]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the terminator appears exactly once, at the end.
func TestTerminatorOnlyAtEnd(t *testing.T) {
	f := func(k []byte) bool {
		syms := AppendSymbols(nil, k)
		for i, s := range syms {
			if (s == Terminator) != (i == len(syms)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// maxKeyLen is the longest key the trie accepts (core.MaxKeyLen).
const maxKeyLen = 4096

// checkAppendSymbols checks AppendSymbols(dst, k) against the per-symbol
// SymbolAt sequence for a dst with and without a prefix, with and without
// spare capacity, and checks that the prefix is left untouched.
func checkAppendSymbols(t *testing.T, k []byte) {
	t.Helper()
	want := make([]byte, NumSymbols(k))
	for i := range want {
		want[i] = SymbolAt(k, i)
	}
	prefix := []byte{0xa5, 0x5a, 0xff}
	for _, dst := range [][]byte{
		nil,
		make([]byte, 0, len(want)+7),
		append([]byte(nil), prefix...)[:3:3],
		append(make([]byte, 0, len(prefix)+len(want)+7), prefix...),
	} {
		got := AppendSymbols(dst, k)
		if !bytes.Equal(dst, prefix[:len(dst)]) || !bytes.Equal(got[:len(dst)], dst) {
			t.Fatalf("len %d, prefix %d cap %d: prefix became %v / %v", len(k), len(dst), cap(dst), dst, got[:len(dst)])
		}
		if !bytes.Equal(got[len(dst):], want) {
			t.Fatalf("len %d (%x), prefix %d cap %d: AppendSymbols = %v, SymbolAt = %v",
				len(k), k, len(dst), cap(dst), got[len(dst):], want)
		}
	}
}

// Property: AppendSymbols equals the per-symbol SymbolAt sequence for every
// key length the trie accepts.
func TestAppendSymbolsMatchesSymbolAt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := []int{maxKeyLen, maxKeyLen - 1, maxKeyLen - 4}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(maxKeyLen+1))
	}
	for _, n := range lengths {
		k := make([]byte, n)
		rng.Read(k)
		checkAppendSymbols(t, k)
		for i := range k {
			k[i] = 0xff
		}
		checkAppendSymbols(t, k)
	}
}

// FuzzAppendSymbols searches for a key whose word-at-a-time expansion
// differs from the SymbolAt sequence. Seed corpus:
// testdata/fuzz/FuzzAppendSymbols.
func FuzzAppendSymbols(f *testing.F) {
	f.Fuzz(func(t *testing.T, k []byte) {
		if len(k) > maxKeyLen {
			k = k[:maxKeyLen]
		}
		checkAppendSymbols(t, k)
	})
}

func TestCommonPrefixLen(t *testing.T) {
	a := []byte("hello world")
	b := []byte("hello there")
	got := CommonPrefixLen(a, b)
	// Shared bytes: "hello " = 6 bytes = 48 bits; symbols diverge at or after
	// floor(48/5) = 9 full shared symbols... compute via reference.
	sa := AppendSymbols(nil, a)
	sb := AppendSymbols(nil, b)
	want := 0
	for want < len(sa) && want < len(sb) && sa[want] == sb[want] {
		want++
	}
	if got != want {
		t.Fatalf("CommonPrefixLen = %d, want %d", got, want)
	}
	if got := CommonPrefixLen(a, a); got != NumSymbols(a) {
		t.Fatalf("CommonPrefixLen(a,a) = %d, want %d", got, NumSymbols(a))
	}
}

func TestUint64KeyRoundTripAndOrder(t *testing.T) {
	f := func(x, y uint64) bool {
		kx, ky := Uint64Key(x), Uint64Key(y)
		if Uint64FromKey(kx) != x {
			return false
		}
		c := bytes.Compare(kx, ky)
		switch {
		case x < y:
			return c < 0
		case x > y:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendUint64Key(t *testing.T) {
	got := AppendUint64Key([]byte{0xaa}, 0x0102030405060708)
	want := []byte{0xaa, 1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
}

func BenchmarkSymbolAt(b *testing.B) {
	k := []byte("benchmark-key-16")
	n := NumSymbols(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SymbolAt(k, i%n)
	}
}

// Package dataset generates the paper's five evaluation datasets (Table 1)
// as deterministic, seeded synthetic equivalents — the real OSM, Amazon and
// Reddit dumps are not redistributable, so we match their index-relevant
// structure: key length distribution and shared-prefix (unique-prefix)
// structure. `ctbench table1` prints the generated statistics beside the
// paper's.
package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/keys"
)

// Name identifies one of the paper's datasets.
type Name string

// The paper's five datasets (Table 1).
const (
	Rand8  Name = "rand-8"  // 8-byte uniform random keys
	Rand16 Name = "rand-16" // 16-byte uniform random keys
	OSM    Name = "osm"     // 64-bit Morton-encoded geographic coordinates
	AZ     Name = "az"      // Amazon-review-style (item, user, time) tuples
	Reddit Name = "reddit"  // username-like strings
)

// All lists the datasets in the paper's presentation order.
var All = []Name{Rand8, Rand16, OSM, AZ, Reddit}

// Generate returns n distinct keys of the named dataset, shuffled, with a
// deterministic seed (the paper shuffles and deduplicates all datasets).
func Generate(name Name, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([][]byte, 0, n)
	add := func(k []byte) bool {
		if seen[string(k)] {
			return false
		}
		seen[string(k)] = true
		out = append(out, k)
		return true
	}
	for len(out) < n {
		switch name {
		case Rand8:
			k := make([]byte, 8)
			rng.Read(k)
			add(k)
		case Rand16:
			k := make([]byte, 16)
			rng.Read(k)
			add(k)
		case OSM:
			add(osmKey(rng))
		case AZ:
			add(azKey(rng))
		case Reddit:
			add(redditKey(rng))
		default:
			panic("dataset: unknown dataset " + string(name))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// osmKey emulates osmc64: a 64-bit cell number from Morton-interleaved
// latitude/longitude of a random location. Locations cluster over land
// masses; we approximate with a mixture of dense clusters (cities) and a
// uniform background, giving the slightly longer unique prefixes Table 1
// reports for osm versus rand-8 (36.8 vs 28.9 bits).
func osmKey(rng *rand.Rand) []byte {
	var lat, lon float64
	if rng.Intn(100) < 70 {
		// Clustered around one of 512 fixed "cities".
		city := rng.Intn(512)
		crng := rand.New(rand.NewSource(int64(city) * 7919))
		clat := crng.Float64()*160 - 80
		clon := crng.Float64()*360 - 180
		lat = clamp(clat+rng.NormFloat64()*0.5, -85, 85)
		lon = wrap(clon + rng.NormFloat64()*0.5)
	} else {
		lat = rng.Float64()*170 - 85
		lon = rng.Float64()*360 - 180
	}
	x := uint32((lon + 180) / 360 * float64(1<<32-1))
	y := uint32((lat + 90) / 180 * float64(1<<32-1))
	var m [8]byte
	binary.BigEndian.PutUint64(m[:], morton(x, y))
	return m[:]
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func wrap(v float64) float64 {
	for v < -180 {
		v += 360
	}
	for v > 180 {
		v -= 360
	}
	return v
}

// morton interleaves the bits of x and y.
func morton(x, y uint32) uint64 {
	return spread(uint64(x))<<1 | spread(uint64(y))
}

func spread(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// azKey emulates the Az1 dataset: (item ID, user ID, time) tuples from
// Amazon reviews, ≈35.7-byte keys with LONG common prefixes — popular items
// have many reviews sharing the item-ID prefix. This is the paper's
// worst-case dataset for the Cuckoo Trie (§4.7, §6.2).
func azKey(rng *rand.Rand) []byte {
	// Zipf over items: a few items get most reviews.
	z := rand.NewZipf(rng, 1.3, 4, 1<<20)
	item := z.Uint64()
	user := rng.Uint64() % (1 << 40)
	t := 1_300_000_000 + rng.Int63n(300_000_000)
	return []byte(fmt.Sprintf("B%09dA%013dT%011d", item, user, t))
}

// redditKey emulates the Reddit username dump: short lowercase strings,
// mean length ≈10.9, with common stems ("the", "mr", years, etc.).
func redditKey(rng *rand.Rand) []byte {
	var stems = []string{"", "", "", "the", "mr", "its", "x", "real", "im", "dark", "lil"}
	var suffixes = []string{"", "", "123", "2016", "2017", "_", "xx", "7"}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789_-"
	stem := stems[rng.Intn(len(stems))]
	suffix := suffixes[rng.Intn(len(suffixes))]
	core := 3 + rng.Intn(10)
	b := make([]byte, 0, len(stem)+core+len(suffix))
	b = append(b, stem...)
	for i := 0; i < core; i++ {
		b = append(b, letters[rng.Intn(len(letters))])
	}
	b = append(b, suffix...)
	return b
}

// Stats summarizes a dataset as Table 1 does.
type Stats struct {
	Name            Name
	Keys            int
	AvgKeyBytes     float64
	AvgUniquePrefix float64 // average unique-prefix length in BITS
}

// Measure computes Table 1's statistics for a key set: average key size and
// average unique-prefix size in bits (the shortest prefix distinguishing
// each key from all others, computed against its sorted neighbors).
func Measure(name Name, ks [][]byte) Stats {
	st := Stats{Name: name, Keys: len(ks)}
	if len(ks) == 0 {
		return st
	}
	var totalLen int64
	for _, k := range ks {
		totalLen += int64(len(k))
	}
	st.AvgKeyBytes = float64(totalLen) / float64(len(ks))

	sorted := make([][]byte, len(ks))
	copy(sorted, ks)
	sortKeys(sorted)
	var totalBits int64
	for i, k := range sorted {
		// Unique prefix bits = 1 + max(lcp with previous, lcp with next).
		lcp := 0
		if i > 0 {
			if l := bitLCP(sorted[i-1], k); l > lcp {
				lcp = l
			}
		}
		if i+1 < len(sorted) {
			if l := bitLCP(k, sorted[i+1]); l > lcp {
				lcp = l
			}
		}
		u := lcp + 1
		if u > len(k)*8 {
			u = len(k) * 8
		}
		totalBits += int64(u)
	}
	st.AvgUniquePrefix = float64(totalBits) / float64(len(sorted))
	return st
}

func bitLCP(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			x := a[i] ^ b[i]
			bits := 0
			for x&0x80 == 0 {
				x <<= 1
				bits++
			}
			return i*8 + bits
		}
	}
	return n * 8
}

func sortKeys(ks [][]byte) {
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i], ks[j]) < 0 })
}

// SymbolStats reports trie-level statistics used by the design notes.
func SymbolStats(ks [][]byte) (avgSymbols float64) {
	var total int64
	for _, k := range ks {
		total += int64(keys.NumSymbols(k))
	}
	if len(ks) == 0 {
		return 0
	}
	return float64(total) / float64(len(ks))
}

package main

// Seeded input generation. The benchmark owns its generators so that a
// change to internal/dataset or internal/ycsb moves the program and never
// the ruler: equal seeds give byte-identical key sets and op streams.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// mix64 is the splitmix64 finalizer. Every step (xor-shift, multiply by an
// odd constant) is invertible, so it is a bijection on uint64 — the property
// keySpace relies on for collision-free keys.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rng is a splitmix64 generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform value in [0, n) by multiply-shift.
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Key spaces. A key is the big-endian image of mix64(off + space<<56 + i):
// distinct (space, i) pairs feed distinct inputs to a bijection, so keys
// never collide — within the loaded set, with the never-inserted "absent"
// probes, or between two workers' fresh inserts — and every reply can be
// verified exactly. The bytes look like the paper's rand-8 dataset.
const (
	spaceLoaded = 0
	spaceAbsent = 1
	spaceFresh  = 2 // + worker id
	keyLen      = 8
)

type keySpace struct{ off uint64 }

func newKeySpace(seed uint64) keySpace { return keySpace{off: mix64(seed ^ 0x6b657973)} }

func (k keySpace) put(dst []byte, space, i uint64) {
	binary.BigEndian.PutUint64(dst, mix64(k.off+space<<56+i))
}

// loaded materialises keys 0..n-1 of the loaded space over one backing
// array (the slice headers are what the index APIs take).
func (k keySpace) loaded(n int) [][]byte {
	buf := make([]byte, keyLen*n)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = buf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		k.put(keys[i], spaceLoaded, uint64(i))
	}
	return keys
}

// Values carry the identity of their key in the high bits, so a lookup that
// returns another key's record is caught even when a concurrent worker has
// updated the value since.
const verBits = 20

func valueOf(idx uint32, ver int) uint64 {
	return uint64(idx)<<verBits | uint64(ver)&(1<<verBits-1)
}

func valueMatches(v uint64, idx uint32) bool { return v>>verBits == uint64(idx) }

// zipf draws ranks in [0, n) with the YCSB zipfian generator (Gray et al.),
// theta 0.99: rank 0 is the hottest item.
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half: math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(r *rng) uint32 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	v := uint32(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= uint32(z.n) {
		v = uint32(z.n) - 1
	}
	return v
}

// digest folds a generated op stream into the workload_digest printed in the
// banner: equal seeds must print equal digests.
type digest uint64

func (d *digest) add(x uint64) { *d = digest(mix64(uint64(*d) ^ x)) }

func (d *digest) addOps(kinds []uint8, idx []uint32) {
	for i, x := range idx {
		k := uint64(0)
		if kinds != nil {
			k = uint64(kinds[i])
		}
		d.add(k<<32 | uint64(x))
	}
}

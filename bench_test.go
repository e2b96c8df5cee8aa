package cuckootrie_test

// One testing.B benchmark per paper table/figure (deliverable d). The
// figure benchmarks emit the paper-style rows once per run via the bench
// harness (they are report generators, sized down so `go test -bench=.`
// completes in minutes); the micro-benchmarks below give per-op numbers for
// the hot paths. Scale up with cmd/ctbench for closer-to-paper runs.

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	cuckootrie "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/keys"
)

// benchOpts sizes the figure regeneration so a full `go test -bench=.` run
// finishes in minutes; scale up with cmd/ctbench for closer-to-paper runs.
func benchOpts() bench.Options {
	return bench.Options{Keys: 30_000, Ops: 30_000, Threads: 2, Seed: 1}
}

// runFigure regenerates the named figure of the bench table b.N times.
func runFigure(b *testing.B, name string, o bench.Options) {
	var fig bench.Figure
	for _, f := range bench.Figures {
		if f.Name == name {
			fig = f
		}
	}
	if fig.Name == "" {
		b.Fatalf("no figure %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fig.Run(os.Stdout, o, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)       { runFigure(b, "table1", benchOpts()) }
func BenchmarkFig2LatencyBreakdown(b *testing.B) { runFigure(b, "fig2", benchOpts()) }
func BenchmarkFig6Scalability(b *testing.B)      { runFigure(b, "fig6", benchOpts()) }
func BenchmarkFig7SingleThread(b *testing.B)     { runFigure(b, "fig7", benchOpts()) }
func BenchmarkFig8MultiThread(b *testing.B)      { runFigure(b, "fig8", benchOpts()) }
func BenchmarkFig9SizeScaling(b *testing.B)      { runFigure(b, "fig9", benchOpts()) }

func BenchmarkFig10Scans(b *testing.B) {
	o := benchOpts()
	o.Ops = 10_000
	runFigure(b, "fig10", o)
}

func BenchmarkFig11Memory(b *testing.B)   { runFigure(b, "fig11", benchOpts()) }
func BenchmarkFig12MlpIndex(b *testing.B) { runFigure(b, "fig12", benchOpts()) }

func BenchmarkFig13Redis(b *testing.B) {
	o := benchOpts()
	o.Keys = 10_000
	o.Ops = 10_000
	runFigure(b, "fig13", o)
}

func BenchmarkTable3Bandwidth(b *testing.B) { runFigure(b, "table3", benchOpts()) }
func BenchmarkAblations(b *testing.B)       { runFigure(b, "ablation", benchOpts()) }
func BenchmarkMultiGetFigure(b *testing.B)  { runFigure(b, "multiget", benchOpts()) }

func BenchmarkShardedFigure(b *testing.B) {
	o := benchOpts()
	o.Shards = 4
	runFigure(b, "sharded", o)
}

// --- micro-benchmarks on the Cuckoo Trie hot paths ---

func newLoadedTrie(n int) (*cuckootrie.Trie, [][]byte) {
	ks := dataset.Generate(dataset.Rand8, n, 3)
	t := cuckootrie.New(cuckootrie.Config{CapacityHint: n, AutoResize: true})
	for i, k := range ks {
		if _, err := t.Set(k, uint64(i)); err != nil {
			panic(err)
		}
	}
	return t, ks
}

// lookupSizes are the table sizes of the single-key and batch lookup
// benchmarks, chosen to bracket where batch-64 MultiGet overtakes a Get
// loop. At 8 k keys the table (426 KB of buckets) stays in L2, so ns/key is
// the lookup's CPU floor; each later size is 4-8x the previous, up to a
// 2^20-key table far beyond L2. BenchmarkMultiGetDRAM is the gate's 1M-key
// shape (bulk-loaded at CapacityHint 2x).
var lookupSizes = []int{8 << 10, 1 << 16, 1 << 18, 1 << 20}

func BenchmarkTrieGet(b *testing.B) {
	for _, n := range lookupSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			t, ks := newLoadedTrie(n)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			var hits int
			for i := 0; i < b.N; i++ {
				if _, ok := t.Get(ks[rng.Intn(len(ks))]); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		})
	}
}

// benchMultiGet runs one sub-benchmark per batch size over uniform-random
// loaded keys. An iteration is one key, so ns/op is ns/key (reported under
// that name too).
func benchMultiGet(b *testing.B, t *cuckootrie.Trie, ks [][]byte, batches ...int) {
	for _, batch := range batches {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			kbuf := make([][]byte, batch)
			vals := make([]uint64, batch)
			found := make([]bool, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				for j := 0; j < batch; j++ {
					kbuf[j] = ks[rng.Intn(len(ks))]
				}
				t.MultiGet(kbuf, vals, found)
			}
			b.StopTimer()
			for j := 0; j < batch; j++ {
				if !found[j] {
					b.Fatal("MultiGet missed a loaded key")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
		})
	}
}

// BenchmarkMultiGet exercises core's staged batch lookup path at the batch
// sizes of the MLP experiment on each of lookupSizes: batch=1 is the
// degenerate (single-Get) baseline; larger batches let the prefetched
// probes' misses overlap.
func BenchmarkMultiGet(b *testing.B) {
	for _, n := range lookupSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			t, ks := newLoadedTrie(n)
			benchMultiGet(b, t, ks, 1, 8, 64)
		})
	}
}

// BenchmarkMultiGetDRAM is the quick in-module read-out of the gate's
// lib_multiget_dram shape: 1M rand-8 keys bulk-loaded with CapacityHint 2x
// (a ~125 MB table, far beyond L2). The staged pipeline is tuned for this
// point and the two benchmarks can move in opposite directions, so report
// both.
func BenchmarkMultiGetDRAM(b *testing.B) {
	const n = 1_000_000
	ks := dataset.Generate(dataset.Rand8, n, 3)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	t := cuckootrie.New(cuckootrie.Config{CapacityHint: 2 * n, AutoResize: true})
	if added, err := index.BulkLoad(t, ks, vals); err != nil || added != n {
		b.Fatalf("bulk load: added %d of %d: %v", added, n, err)
	}
	benchMultiGet(b, t, ks, 1, 2, 8, 64)
}

// BenchmarkBulkLoadDRAM is the writer-side twin of BenchmarkMultiGetDRAM:
// one iteration bulk-loads the same 1M rand-8 keys into a fresh trie sized
// with CapacityHint 2x. allocs/op and B/op cover the whole load, the table
// included; divide by the reported keys for per-key figures.
func BenchmarkBulkLoadDRAM(b *testing.B) {
	const n = 1_000_000
	ks := dataset.Generate(dataset.Rand8, n, 3)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := cuckootrie.New(cuckootrie.Config{CapacityHint: 2 * n, AutoResize: true})
		if added, err := index.BulkLoad(t, ks, vals); err != nil || added != n {
			b.Fatalf("bulk load: added %d of %d: %v", added, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	b.ReportMetric(n, "keys")
}

func BenchmarkTrieGetParallel(b *testing.B) {
	t, ks := newLoadedTrie(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			t.Get(ks[rng.Intn(len(ks))])
		}
	})
}

func BenchmarkTrieSet(b *testing.B) {
	ks := dataset.Generate(dataset.Rand8, 1<<18, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var t *cuckootrie.Trie
	for i := 0; i < b.N; i++ {
		if i%len(ks) == 0 {
			b.StopTimer()
			t = cuckootrie.New(cuckootrie.Config{CapacityHint: len(ks), AutoResize: true})
			b.StartTimer()
		}
		if _, err := t.Set(ks[i%len(ks)], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieDelete(b *testing.B) {
	ks := dataset.Generate(dataset.Rand8, 1<<17, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ks) {
		b.StopTimer()
		t, _ := func() (*cuckootrie.Trie, [][]byte) {
			t := cuckootrie.New(cuckootrie.Config{CapacityHint: len(ks), AutoResize: true})
			for j, k := range ks {
				t.Set(k, uint64(j))
			}
			return t, ks
		}()
		b.StartTimer()
		for j := 0; j < len(ks) && i+j < b.N; j++ {
			t.Delete(ks[j])
		}
	}
}

func BenchmarkTrieScan100(b *testing.B) {
	t, ks := newLoadedTrie(1 << 17)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		t.Scan(ks[rng.Intn(len(ks))], 100, func(k []byte, v uint64) bool {
			sink += v
			return true
		})
	}
	_ = sink
}

func BenchmarkTrieSeek(b *testing.B) {
	t, ks := newLoadedTrie(1 << 17)
	rng := rand.New(rand.NewSource(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := t.Seek(ks[rng.Intn(len(ks))])
		if err != nil || !it.Valid() {
			b.Fatal("seek failed")
		}
	}
}

func BenchmarkSymbolHashPath(b *testing.B) {
	// Cost of expanding a 16-byte key to symbols (the per-lookup setup).
	k := []byte("sixteen-byte-key")
	var buf [64]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = keys.AppendSymbols(buf[:0], k)
	}
}

func ExampleTrie() {
	t := cuckootrie.New(cuckootrie.Config{CapacityHint: 16})
	t.Set([]byte("b"), 2)
	t.Set([]byte("a"), 1)
	t.Scan(nil, 10, func(k []byte, v uint64) bool {
		fmt.Printf("%s=%d\n", k, v)
		return true
	})
	// Output:
	// a=1
	// b=2
}

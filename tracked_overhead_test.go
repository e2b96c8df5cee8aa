package cuckootrie_test

// The observability contract for index.Tracked: wrapping an engine must
// cost ≤5% of batched read throughput, because the decorator's price —
// one clock pair and one histogram Record — amortizes over the whole
// MultiGet batch. Measured as the median ratio of interleaved raw/tracked
// pairs of short slices, so neither one scheduler hiccup nor a machine
// speed shift can decide the bound.

import (
	"sort"
	"testing"
	"time"

	cuckootrie "repro"
	"repro/internal/dataset"
	"repro/internal/index"
)

const overheadBatch = 64

func multiGetBench(ix index.Index, ks [][]byte) func(b *testing.B) {
	return func(b *testing.B) {
		vals := make([]uint64, overheadBatch)
		found := make([]bool, overheadBatch)
		b.SetBytes(overheadBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * overheadBatch) % (len(ks) - overheadBatch)
			ix.MultiGet(ks[lo:lo+overheadBatch], vals, found)
		}
	}
}

func TestTrackedOverheadMultiGet(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bound is not short")
	}
	const n = 1 << 16
	ks := dataset.Generate(dataset.Rand8, n, 11)
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: n, AutoResize: true})
	for i, k := range ks {
		if _, err := trie.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tracked := index.Tracked(trie)

	// Raw and tracked slices alternate in pairs over the same batches, and
	// the bound is on the median of the per-pair ratios: the VM shifts
	// speed level for minutes at a time, so only two slices taken back to
	// back share a level, and a hiccup inside one pair moves one ratio,
	// not the verdict. Odd pairs run tracked first, so whatever the second
	// slice of a pair gains from the first's cache footprint cancels.
	const (
		pairs        = 401
		sliceBatches = 200 // ~5 ms a slice
	)
	vals := make([]uint64, overheadBatch)
	found := make([]bool, overheadBatch)
	timeSlice := func(ix index.Index, first int) float64 {
		t0 := time.Now()
		for i := first; i < first+sliceBatches; i++ {
			lo := (i * overheadBatch) % (len(ks) - overheadBatch)
			ix.MultiGet(ks[lo:lo+overheadBatch], vals, found)
		}
		return float64(time.Since(t0))
	}
	timeSlice(tracked, 0) // warm-up: pooled scratch, histogram shards
	var ratios [pairs]float64
	for i := range ratios {
		var raw, wrapped float64
		if i%2 == 0 {
			raw = timeSlice(trie, i*sliceBatches)
			wrapped = timeSlice(tracked, i*sliceBatches)
		} else {
			wrapped = timeSlice(tracked, i*sliceBatches)
			raw = timeSlice(trie, i*sliceBatches)
		}
		ratios[i] = (wrapped - raw) / raw * 100
	}
	sort.Float64s(ratios[:])
	overhead := ratios[pairs/2]
	t.Logf("multiget batch=%d, %d raw/tracked pairs of %d batches: overhead quartiles %.2f%% / %.2f%% / %.2f%%",
		overheadBatch, pairs, sliceBatches, ratios[pairs/4], overhead, ratios[3*pairs/4])
	if overhead > 5 {
		t.Fatalf("Tracked overhead %.2f%% (median of %d pairs) exceeds the 5%% observability budget", overhead, pairs)
	}
	if tracked.OpHist(index.OpMultiGet).Count() == 0 {
		t.Fatal("tracked run recorded no multiget samples")
	}
}

func BenchmarkMultiGetTracked(b *testing.B) {
	const n = 1 << 16
	ks := dataset.Generate(dataset.Rand8, n, 11)
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: n, AutoResize: true})
	for i, k := range ks {
		if _, err := trie.Set(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("raw", multiGetBench(trie, ks))
	b.Run("tracked", multiGetBench(index.Tracked(trie), ks))
}

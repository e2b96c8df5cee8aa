package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/dataset"
)

// MultiGetBatchSizes are the batch sizes of the batched-lookup experiment.
var MultiGetBatchSizes = []int{1, 8, 64}

// multiGetBench measures batched point-lookup throughput (Mops/s) for every
// engine at batch sizes 1/8/64. This is the paper's MLP argument (§4.4)
// generalized across keys: the Cuckoo Trie's MultiGet stages the hash
// ladders and bucket addresses of a whole batch before resolving any key, so
// its independent DRAM misses overlap, while pointer-chasing engines gain
// nothing from batching (their fallback is a plain loop). The batch=1 column
// doubles as a sanity baseline: it must track single-Get throughput.
func multiGetBench(w io.Writer, o Options) {
	header(w, "MultiGet: batched lookup throughput (Mops/s)",
		"cross-key MLP; CuckooTrie gains with batch size, serial engines stay flat")

	engines := append([]Engine{}, Engines()...)
	if mlp, ok := engineByName("MlpIndex"); ok {
		engines = append(engines, mlp)
	}
	if sl, ok := engineByName("SkipList"); ok {
		engines = append(engines, sl)
	}

	ks := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	fmt.Fprintf(w, "\n%-14s", "")
	for _, bs := range MultiGetBatchSizes {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("batch=%d", bs))
	}
	fmt.Fprintln(w)
	for _, e := range engines {
		ix := load(e, ks, len(ks))
		fmt.Fprintf(w, "%-14s", e.Name)
		for _, bs := range MultiGetBatchSizes {
			fmt.Fprintf(w, "%10.3f", runMultiGet(ix, ks, o.Ops, bs, o.Seed))
		}
		fmt.Fprintln(w)
	}
}

// runMultiGet issues ops random lookups in batches of size bs and returns
// Mops/s. Every batch is verified to have found all its (present) keys so a
// broken batch path cannot masquerade as a fast one.
func runMultiGet(ix interface {
	MultiGet(keys [][]byte, vals []uint64, found []bool)
	Name() string
}, ks [][]byte, ops, bs int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	batch := make([][]byte, bs)
	vals := make([]uint64, bs)
	found := make([]bool, bs)
	done := 0
	start := time.Now()
	for done < ops {
		for j := 0; j < bs; j++ {
			batch[j] = ks[rng.Intn(len(ks))]
		}
		ix.MultiGet(batch, vals, found)
		for j := 0; j < bs; j++ {
			if !found[j] {
				panic(fmt.Sprintf("%s: MultiGet missed a loaded key", ix.Name()))
			}
		}
		done += bs
	}
	return mops(done, time.Since(start))
}

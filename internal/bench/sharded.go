package bench

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/sharded"
)

// shardLadder builds the figure's shard counts: powers of two from 1 up to
// the requested maximum, rounded to what sharded.New actually builds so
// every column label matches the measured configuration, and never
// exceeding the user's cap by more than that rounding.
func shardLadder(max int) []int {
	rounded := sharded.RoundShards(max)
	var out []int
	for s := 1; s <= rounded; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// shardedBatchSize is the batch the sharded figure drains per MultiGet: big
// enough that every shard's sub-batch still amortizes the scatter, the
// regime of a server emptying a deep pipeline.
const shardedBatchSize = 512

// shardedReport measures scatter-gather MultiGet throughput into a Report:
// on rand-8, the hash-routed shard ladder (the original cross-core MLP
// sweep); on the skewed datasets, the hash/range trade-off at the max
// shard count — a range-routed sub-batch scatter is only as parallel as
// its balance, which the balance field quantifies.
func shardedReport(o Options) Report {
	rep := newReport("sharded", o)
	cell := func(e Engine, router string, shards int, ds dataset.Name, ks [][]byte) Row {
		eng := e
		if shards > 1 {
			var ok bool
			if eng, ok = ShardedEngineRouted(e, shards, router); !ok {
				panic("bench: unknown router " + router)
			}
		}
		ix := load(eng, ks, len(ks))
		return Row{
			Engine:  e.Name,
			Dataset: string(ds),
			Router:  router,
			Shards:  shards,
			Mops:    runMultiGet(ix, ks, o.Ops, shardedBatchSize, o.Seed),
			Balance: balanceOf(ix),
		}
	}

	ks := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	for _, e := range Engines() {
		if !e.Concurrent {
			continue
		}
		for _, s := range shardLadder(o.Shards) {
			router := "hash"
			if s == 1 {
				router = ""
			}
			rep.Rows = append(rep.Rows, cell(e, router, s, dataset.Rand8, ks))
		}
	}
	if rep.MaxShards > 1 {
		for _, ds := range skewedDatasets {
			ks := datasetKeys(ds, o.Keys, o.Seed)
			for _, e := range Engines() {
				if !e.Concurrent {
					continue
				}
				rep.Rows = append(rep.Rows, cell(e, "", 1, ds, ks))
				for _, r := range routedModes {
					rep.Rows = append(rep.Rows, cell(e, r, rep.MaxShards, ds, ks))
				}
			}
		}
	}
	return rep
}

// renderSharded renders sharded vs. unsharded batched-lookup throughput:
// the cross-core axis of the paper's MLP argument. The rand-8 table
// sweeps the shard ladder under hash routing — column x1 is the unsharded
// engine (no wrapper at all); columns x2..xN scatter each 512-key MultiGet
// into per-shard sub-batches that run concurrently on a worker pool. The
// skewed-dataset tables compare the routing modes at the max shard count,
// with the balance footer showing each router's per-shard spread (a hot
// shard would serialize the sub-batches). Scaling tracks the
// machine's core count — on a single-core box the sharded columns only
// measure the scatter overhead; the banner's GOMAXPROCS says which regime
// produced the numbers.
func renderSharded(w io.Writer, o Options, rep Report) {
	header(w, fmt.Sprintf("Sharded scatter-gather: MultiGet throughput by shard count and router (Mops/s, batch=%d)", shardedBatchSize),
		"cross-core MLP; sharded engines scale with shard count up to the core count")
	rows := rowIndex(rep)

	fmt.Fprintf(w, "\nrand-8 (shard ladder, router=hash):\n%-14s", "")
	for _, s := range shardLadder(o.Shards) {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("x%d", s))
	}
	fmt.Fprintln(w)
	for _, e := range Engines() {
		if !e.Concurrent {
			continue
		}
		fmt.Fprintf(w, "%-14s", e.Name)
		for _, s := range shardLadder(o.Shards) {
			router := "hash"
			if s == 1 {
				router = ""
			}
			fmt.Fprintf(w, "%10.3f", rows[rowKey(e.Name, "rand-8", router, s)].Mops)
		}
		fmt.Fprintln(w)
	}

	renderSkewedTables(w, rep, rows)
}

package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
)

// routedModes are the routing modes the shard-axis figures sweep, in
// presentation order: hash (balanced, order-scattered) and range (ordered;
// both figures bulk-load into an empty index, which trains its boundaries
// from the load stream, so it is balanced too).
var routedModes = []string{"hash", "range"}

// skewedDatasets is the skewed-dataset axis of the router figures: az keys
// share a long "B..." prefix and reddit usernames cluster in the lowercase
// range, so an untrained range router's prefix split would pile either
// onto one hot shard — the regime its trained boundaries exist for
// (TestSampledRouterBalanceSkewed pins the contrast).
var skewedDatasets = []dataset.Name{dataset.AZ, dataset.Reddit}

// rowIndex keys a Report's rows by their identifying axes for table
// rendering.
func rowIndex(rep Report) map[string]Row {
	rows := map[string]Row{}
	for _, r := range rep.Rows {
		rows[r.axes()] = r
	}
	return rows
}

// rowKey is the axes key of the shard figures' cells (no workload or
// thread axis).
func rowKey(engine, ds, router string, shards int) string {
	return Row{Engine: engine, Dataset: ds, Router: router, Shards: shards}.axes()
}

// valsFor numbers a key stream 0..n-1, the value convention of every load.
func valsFor(ks [][]byte) []uint64 {
	vals := make([]uint64, len(ks))
	for i := range vals {
		vals[i] = uint64(i)
	}
	return vals
}

// loadReport measures the partitioned bulk-load path into a Report: on
// rand-8, LOAD throughput across the full shard ladder × router; on the
// skewed datasets, the router trade-off at the max shard count with the
// loaded index's per-shard balance.
func loadReport(o Options) Report {
	rep := newReport("load", o)
	cell := func(e Engine, router string, shards int, ds dataset.Name, ks [][]byte, vals []uint64) Row {
		var ix index.Index
		if shards == 1 {
			ix = e.New(len(ks))
		} else {
			se, ok := ShardedEngineRouted(e, shards, router)
			if !ok {
				panic("bench: unknown router " + router)
			}
			ix = se.New(len(ks))
		}
		start := time.Now()
		if _, err := index.BulkLoad(ix, ks, vals); err != nil {
			panic(fmt.Sprintf("%s %s-x%d load: %v", e.Name, router, shards, err))
		}
		return Row{
			Engine:  e.Name,
			Dataset: string(ds),
			Router:  router,
			Shards:  shards,
			Mops:    mops(len(ks), time.Since(start)),
			Balance: balanceOf(ix),
		}
	}

	ks := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	vals := valsFor(ks)
	for _, e := range Engines() {
		if !e.Concurrent {
			continue
		}
		rep.Rows = append(rep.Rows, cell(e, "", 1, dataset.Rand8, ks, vals))
		for _, s := range shardLadder(o.Shards) {
			if s == 1 {
				continue
			}
			for _, r := range routedModes {
				rep.Rows = append(rep.Rows, cell(e, r, s, dataset.Rand8, ks, vals))
			}
		}
	}
	if rep.MaxShards > 1 {
		for _, ds := range skewedDatasets {
			ks := datasetKeys(ds, o.Keys, o.Seed)
			vals := valsFor(ks)
			for _, e := range Engines() {
				if !e.Concurrent {
					continue
				}
				rep.Rows = append(rep.Rows, cell(e, "", 1, ds, ks, vals))
				for _, r := range routedModes {
					rep.Rows = append(rep.Rows, cell(e, r, rep.MaxShards, ds, ks, vals))
				}
			}
		}
	}
	return rep
}

// renderLoad renders the partitioned bulk-load figure as text: LOAD-phase
// throughput (Mops/s) by shard count and router on rand-8, then the
// hash/range trade-off on the skewed datasets with a per-shard
// balance column (max/mean key count; 1.00 = even, shard count = one hot
// shard). Column x1 is the unsharded engine loading through the
// chunked-MultiSet fallback. On a single-core box the sharded columns only
// bound the partitioning overhead; the banner's GOMAXPROCS says which
// regime produced the numbers.
func renderLoad(w io.Writer, o Options, rep Report) {
	header(w, "Load: partitioned bulk-load throughput by dataset, shard count and router (Mops/s)",
		"ingest-side cross-core MLP; trained boundaries keep range routing balanced on skew")
	rows := rowIndex(rep)

	// rand-8: shard ladder × router.
	fmt.Fprintf(w, "\nrand-8 (shard ladder):\n%-14s%12s", "", "x1")
	var ladder []int
	for _, s := range shardLadder(o.Shards) {
		if s > 1 {
			ladder = append(ladder, s)
		}
	}
	for _, s := range ladder {
		for _, r := range routedModes {
			fmt.Fprintf(w, "%12s", fmt.Sprintf("%s-x%d", r, s))
		}
	}
	fmt.Fprintln(w)
	for _, e := range Engines() {
		if !e.Concurrent {
			continue
		}
		fmt.Fprintf(w, "%-14s%12.3f", e.Name, rows[rowKey(e.Name, "rand-8", "", 1)].Mops)
		for _, s := range ladder {
			for _, r := range routedModes {
				fmt.Fprintf(w, "%12.3f", rows[rowKey(e.Name, "rand-8", r, s)].Mops)
			}
		}
		fmt.Fprintln(w)
	}

	renderSkewedTables(w, rep, rows)
}

// renderSkewedTables renders the skewed-dataset router trade-off tables of
// a load/sharded Report: per dataset, engines × {x1, hash, range}
// at the max shard count, with a per-router balance footer (max/mean shard
// key count, from the first engine's cells — balance is a router×dataset
// property; engines only add hash-seed noise).
func renderSkewedTables(w io.Writer, rep Report, rows map[string]Row) {
	if rep.MaxShards <= 1 {
		return
	}
	first := ""
	for _, e := range Engines() {
		if e.Concurrent {
			first = e.Name
			break
		}
	}
	for _, ds := range skewedDatasets {
		fmt.Fprintf(w, "\n%s (skewed keys, x%d):\n%-14s%12s", ds, rep.MaxShards, "", "x1")
		for _, r := range routedModes {
			fmt.Fprintf(w, "%12s", fmt.Sprintf("%s-x%d", r, rep.MaxShards))
		}
		fmt.Fprintln(w)
		for _, e := range Engines() {
			if !e.Concurrent {
				continue
			}
			fmt.Fprintf(w, "%-14s%12.3f", e.Name, rows[rowKey(e.Name, string(ds), "", 1)].Mops)
			for _, r := range routedModes {
				fmt.Fprintf(w, "%12.3f", rows[rowKey(e.Name, string(ds), r, rep.MaxShards)].Mops)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-14s%12s", "balance", "-")
		for _, r := range routedModes {
			fmt.Fprintf(w, "%12.2f", rows[rowKey(first, string(ds), r, rep.MaxShards)].Balance)
		}
		fmt.Fprintf(w, "   (max/mean shard keys; 1.00 even, %d.00 one hot shard)\n", rep.MaxShards)
	}
}

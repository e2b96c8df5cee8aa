package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	cuckootrie "repro"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/ycsb"
)

// table1 regenerates the dataset-statistics table.
func table1(w io.Writer, o Options) {
	header(w, "Table 1: datasets", "avg key bytes / avg unique prefix bits / #keys")
	fmt.Fprintf(w, "%-10s %14s %22s %10s\n", "dataset", "avg key bytes", "avg uniq prefix bits", "keys")
	paper := map[dataset.Name][2]float64{
		dataset.Rand8: {8, 28.9}, dataset.Rand16: {16, 28.9}, dataset.OSM: {8, 36.8},
		dataset.AZ: {35.7, 138.2}, dataset.Reddit: {10.9, 63.7},
	}
	for _, name := range dataset.All {
		ks := datasetKeys(name, o.Keys, o.Seed)
		st := dataset.Measure(name, ks)
		p := paper[name]
		fmt.Fprintf(w, "%-10s %14.1f %22.1f %10d   (paper: %.1f B, %.1f bits)\n",
			name, st.AvgKeyBytes, st.AvgUniquePrefix, st.Keys, p[0], p[1])
	}
}

// fig2SmallKeys sizes fig2's small table: 8 k rand-8 keys keep every
// engine's nodes in L2, so a lookup there costs roughly its execution time.
const fig2SmallKeys = 8192

// fig2 regenerates the lookup latency breakdown in wall-clock time: each
// engine's ns/lookup on a small, cache-resident table (≈ execution) and on
// the o.Keys table (execution + memory stall). Their difference is the
// stall; each loop's own harness cost cancels in it, so rows compare on the
// stall column.
func fig2(w io.Writer, o Options) {
	small := min(fig2SmallKeys, o.Keys)
	header(w, fmt.Sprintf("Figure 2: ns per lookup, %d-key vs %d-key table (rand-8)", small, o.Keys),
		"CuckooTrie total < serial indexes' stall alone; its misses overlap, theirs do not")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)

	fmt.Fprintf(w, "%-22s %10s %10s %10s %8s\n", "index", "small ns", "large ns", "stall ns", "stall %")
	// row prints one index's ns/lookup on keys[:small] and keys[:o.Keys],
	// given its throughput (Mops/s) on keys[:n].
	row := func(name string, mopsOn func(n int) float64) {
		s, l := 1e3/mopsOn(small), 1e3/mopsOn(o.Keys)
		fmt.Fprintf(w, "%-22s %10.1f %10.1f %10.1f %8.1f\n", name, s, l, l-s, (l-s)/l*100)
	}
	for _, e := range Engines() {
		row(e.Name, func(n int) float64 {
			return runWorkload(e, ycsb.C, keys[:n], n, o.Ops, 1, o.Seed)
		})
		if e.Name == "CuckooTrie" {
			row("CuckooTrie-MultiGet64", func(n int) float64 {
				return runMultiGet(load(e, keys, n), keys[:n], o.Ops, 64, o.Seed)
			})
		}
	}
	fmt.Fprintln(w, "stall = large − small; CuckooTrie-MultiGet64 is batch-64 MultiGet, ns per key")
	fmt.Fprintln(w, "paper (200M keys, cycles): CuckooTrie total below every serial index's stall; STX stall 4413")
}

// fig6 regenerates the lookup/insert scalability curves on rand-8.
func fig6(w io.Writer, o Options) {
	header(w, "Figure 6: insert & lookup scalability (rand-8)",
		"speedup vs single thread; ARTOLC/CuckooTrie near-linear, Wormhole inserts saturate")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	threadCounts := threadLadder(o.Threads)
	for _, mode := range []ycsb.Workload{ycsb.C, ycsb.Load} {
		label := "Lookup"
		if mode == ycsb.Load {
			label = "Insert"
		}
		fmt.Fprintf(w, "\n%s speedup:\n%-12s", label, "threads:")
		for _, t := range threadCounts {
			fmt.Fprintf(w, "%8d", t)
		}
		fmt.Fprintln(w)
		for _, e := range Engines() {
			if !e.Concurrent {
				continue
			}
			var base float64
			fmt.Fprintf(w, "%-12s", e.Name)
			for _, t := range threadCounts {
				th := runWorkload(e, mode, keys, o.Keys, o.Ops, t, o.Seed)
				if t == 1 {
					base = th
				}
				fmt.Fprintf(w, "%8.2f", th/base)
			}
			fmt.Fprintln(w)
		}
	}
}

// threadLadder builds Fig6's thread counts: 1, 2, 4 then doubling, PLUS max
// itself when the doubling misses it — on machines whose core count is not
// a power of two (6, 12, 20), the figure must still measure at the actual
// core count. The result is dedup-sorted.
func threadLadder(max int) []int {
	counts := []int{1, 2, 4}
	for t := 8; t <= max; t *= 2 {
		counts = append(counts, t)
	}
	if max > 0 {
		counts = append(counts, max)
	}
	sort.Ints(counts)
	out := counts[:1]
	for _, t := range counts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// fig7Report measures single-threaded YCSB point-operation throughput.
func fig7Report(o Options) Report { return ycsbPointReport("fig7", o, 1) }

func renderFig7(w io.Writer, o Options, rep Report) {
	header(w, "Figure 7: single-threaded YCSB throughput (Mops/s)",
		"CuckooTrie leads on most dataset/workload pairs except az")
	renderYCSB(w, rep)
}

// fig8Report measures multithreaded YCSB point-operation throughput.
func fig8Report(o Options) Report { return ycsbPointReport("fig8", o, o.Threads) }

func renderFig8(w io.Writer, o Options, rep Report) {
	header(w, fmt.Sprintf("Figure 8: multithreaded (%d threads) YCSB throughput (Mops/s)", o.Threads),
		"same shape as Figure 7 for scalable indexes; STX omitted")
	renderYCSB(w, rep)
}

// ycsbPointReport measures the point-operation YCSB grid (workload ×
// dataset × engine at one thread count) into a Report.
func ycsbPointReport(figure string, o Options, threads int) Report {
	rep := newReport(figure, o)
	rep.MaxShards = 0 // no shard axis in the YCSB grids
	for _, wl := range ycsb.PointWorkloads {
		for _, e := range Engines() {
			if threads > 1 && !e.Concurrent {
				continue
			}
			for _, ds := range dataset.All {
				keys := datasetKeys(ds, o.Keys, o.Seed)
				m, lat := runWorkloadLat(e, wl, keys, loadedFor(wl, len(keys)), o.Ops, threads, o.Seed)
				row := Row{
					Engine:   e.Name,
					Dataset:  string(ds),
					Workload: string(wl),
					Threads:  threads,
					Shards:   1,
					Mops:     m,
				}
				applyLat(&row, lat)
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep
}

// renderYCSB prints a YCSB point-operation report as the familiar
// workload-by-workload tables (engines × datasets).
func renderYCSB(w io.Writer, rep Report) {
	rows := rowIndex(rep)
	threads := 0
	for _, r := range rep.Rows {
		threads = r.Threads
		break
	}
	for _, wl := range ycsb.PointWorkloads {
		renderGrid(w, rows, "YCSB-"+string(wl), wl, threads)
	}
	stabilityBanner(w, rep)
}

// renderGrid prints one engines × datasets table of a YCSB report, Mops/s
// and then the latency cells, for one workload at one thread count.
func renderGrid(w io.Writer, rows map[string]Row, title string, wl ycsb.Workload, threads int) {
	fmt.Fprintf(w, "\n%s:\n%-12s", title, "")
	for _, ds := range dataset.All {
		fmt.Fprintf(w, "%10s", ds)
	}
	fmt.Fprintln(w)
	var engines []Engine
	for _, e := range Engines() {
		if threads <= 1 || e.Concurrent {
			engines = append(engines, e)
		}
	}
	cell := func(e Engine, ds dataset.Name) Row {
		return rows[Row{Engine: e.Name, Dataset: string(ds), Workload: string(wl),
			Threads: threads, Shards: 1}.axes()]
	}
	for _, e := range engines {
		fmt.Fprintf(w, "%-12s", e.Name)
		for _, ds := range dataset.All {
			fmt.Fprintf(w, "%10.3f", cell(e, ds).Mops)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "latency µs (p50/p99/p999 ± p99 CI):\n")
	for _, e := range engines {
		fmt.Fprintf(w, "%-12s", e.Name)
		for _, ds := range dataset.All {
			fmt.Fprintf(w, " %21s", latCol(cell(e, ds)))
		}
		fmt.Fprintln(w)
	}
}

// loadedFor leaves headroom keys for insert-bearing workloads.
func loadedFor(wl ycsb.Workload, n int) int {
	switch wl {
	case ycsb.D, ycsb.E:
		return n * 9 / 10
	default:
		return n
	}
}

// fig9 regenerates lookup throughput as a function of dataset size.
func fig9(w io.Writer, o Options) {
	header(w, "Figure 9: single-threaded lookup throughput vs dataset size (rand-8)",
		"CuckooTrie degrades ~1.2x over 64x growth; serial trees degrade ~1.7x")
	sizes := []int{o.Keys / 16, o.Keys / 8, o.Keys / 4, o.Keys / 2, o.Keys}
	fmt.Fprintf(w, "%-12s", "keys:")
	for _, s := range sizes {
		fmt.Fprintf(w, "%10d", s)
	}
	fmt.Fprintln(w)
	all := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	for _, e := range Engines() {
		fmt.Fprintf(w, "%-12s", e.Name)
		for _, s := range sizes {
			th := runWorkload(e, ycsb.C, all[:s], s, min(o.Ops, s), 1, o.Seed)
			fmt.Fprintf(w, "%10.3f", th)
		}
		fmt.Fprintln(w)
	}
}

// fig10Threads is fig10's thread axis: one thread, then o.Threads.
func fig10Threads(o Options) []int {
	if o.Threads > 1 {
		return []int{1, o.Threads}
	}
	return []int{1}
}

// fig10Report measures the scan-heavy YCSB-E throughput (single and
// multi-threaded).
func fig10Report(o Options) Report {
	rep := newReport("fig10", o)
	rep.MaxShards = 0
	for _, threads := range fig10Threads(o) {
		for _, e := range Engines() {
			if threads > 1 && !e.Concurrent {
				continue
			}
			for _, ds := range dataset.All {
				keys := datasetKeys(ds, o.Keys, o.Seed)
				m, lat := runWorkloadLat(e, ycsb.E, keys, loadedFor(ycsb.E, len(keys)), min(o.Ops, 50_000), threads, o.Seed)
				row := Row{
					Engine:   e.Name,
					Dataset:  string(ds),
					Workload: string(ycsb.E),
					Threads:  threads,
					Shards:   1,
					Mops:     m,
				}
				applyLat(&row, lat)
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep
}

func renderFig10(w io.Writer, o Options, rep Report) {
	header(w, "Figure 10: YCSB-E scan throughput (Mops/s)",
		"CuckooTrie below multi-key-leaf indexes when scan results are unused (§6.4)")
	rows := rowIndex(rep)
	for _, threads := range fig10Threads(o) {
		renderGrid(w, rows, fmt.Sprintf("%d thread(s)", threads), ycsb.E, threads)
	}
	stabilityBanner(w, rep)
}

// fig11 regenerates memory overhead per key, including the paper's resize
// estimate ((1+K)/2 · M for K=2).
func fig11(w io.Writer, o Options) {
	header(w, "Figure 11: memory overhead (bytes/key)",
		"CuckooTrie below ARTOLC/Wormhole (≤28%), above HOT/STX; resize est. = 1.5x table")
	fmt.Fprintf(w, "%-22s", "")
	for _, ds := range dataset.All {
		fmt.Fprintf(w, "%10s", ds)
	}
	fmt.Fprintln(w)
	for _, e := range Engines() {
		fmt.Fprintf(w, "%-22s", e.Name)
		for _, ds := range dataset.All {
			keys := datasetKeys(ds, o.Keys, o.Seed)
			ix := load(e, keys, len(keys))
			fmt.Fprintf(w, "%10.1f", float64(ix.MemoryOverheadBytes())/float64(len(keys)))
		}
		fmt.Fprintln(w)
	}
	// Paper-layout equivalent and resize estimate for the Cuckoo Trie.
	var paperEq []float64
	for _, ds := range dataset.All {
		keys := datasetKeys(ds, o.Keys, o.Seed)
		t := cuckootrie.New(cuckootrie.Config{CapacityHint: len(keys), AutoResize: true})
		for i, k := range keys {
			t.Set(k, uint64(i))
		}
		paperEq = append(paperEq, t.Stats().PaperBytesPerKey)
	}
	fmt.Fprintf(w, "%-22s", "CuckooTrie (paper-eq)")
	for _, b := range paperEq {
		fmt.Fprintf(w, "%10.1f", b)
	}
	fmt.Fprintf(w, "\n%-22s", "CuckooTrie (resize)")
	for _, b := range paperEq {
		fmt.Fprintf(w, "%10.1f", b*1.5)
	}
	fmt.Fprintln(w)
}

// fig12 regenerates the MlpIndex comparison: insert/lookup throughput and
// memory on the 8-byte-key datasets.
func fig12(w io.Writer, o Options) {
	header(w, "Figure 12: CuckooTrie vs MlpIndex (rand-8, osm)",
		"MlpIndex 30-80% faster; ~3x the memory")
	mlp, _ := engineByName("MlpIndex")
	ct, _ := engineByName("CuckooTrie")
	fmt.Fprintf(w, "%-12s %-8s %12s %12s %12s\n", "index", "dataset", "insert Mops", "lookup Mops", "bytes/key")
	for _, ds := range []dataset.Name{dataset.Rand8, dataset.OSM} {
		keys := datasetKeys(ds, o.Keys, o.Seed)
		for _, e := range []Engine{ct, mlp} {
			ins := runWorkload(e, ycsb.Load, keys, len(keys), o.Ops, 1, o.Seed)
			lok := runWorkload(e, ycsb.C, keys, len(keys), o.Ops, 1, o.Seed)
			ix := load(e, keys, len(keys))
			fmt.Fprintf(w, "%-12s %-8s %12.3f %12.3f %12.1f\n",
				e.Name, ds, ins, lok, float64(ix.MemoryOverheadBytes())/float64(len(keys)))
		}
	}
}

// table3 regenerates the bandwidth analysis: the DRAM demand of the
// all-threads YCSB-C run is its measured throughput × the exact cache lines
// a lookup probes (core's LookupLevels) × 64 B. That is an upper bound:
// every probed line is counted as a miss.
func table3(w io.Writer, o Options) {
	header(w, fmt.Sprintf("Table 3: DRAM bandwidth demand (YCSB-C, rand-8, %d threads)", o.Threads),
		"DRAM demand well under limits: 3.6x under spec, 2.15x under random-read max")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	// The YCSB run loads t through this engine, and the line count then
	// walks the same trie: one build serves both.
	ct, _ := engineByName("CuckooTrie")
	t := ct.New(len(keys)).(*cuckootrie.Trie)
	ct.New = func(int) index.Index { return t }
	th := runWorkload(ct, ycsb.C, keys, len(keys), o.Ops, o.Threads, o.Seed) // Mops/s

	probes := probeKeys(keys, min(o.Ops, 20000), o.Seed)
	lines := 0
	for _, k := range probes {
		for _, l := range t.LookupLevels(k) {
			lines += len(l)
		}
	}
	linesPerOp := float64(lines) / float64(len(probes))

	dramBytesPerSec := th * 1e6 * linesPerOp * 64
	const specDRAM = 256e9 // the paper's 2 x 6 DDR4-2666 channels (§6.6)
	const randReadMax = specDRAM * 0.6
	fmt.Fprintf(w, "measured throughput: %.2f Mops/s; probed lines/lookup: %.4f\n", th, linesPerOp)
	fmt.Fprintf(w, "%-10s %14s %18s %18s\n", "resource", "GB/s demand", "% of paper spec", "% of paper rand-read")
	fmt.Fprintf(w, "%-10s %14.2f %18.1f %18.1f\n", "DRAM",
		dramBytesPerSec/1e9, dramBytesPerSec/specDRAM*100, dramBytesPerSec/randReadMax*100)
	fmt.Fprintln(w, "upper bound: every probed line is counted as a DRAM miss")
	fmt.Fprintln(w, "paper (2 sockets, 28 threads): DRAM 71.24 GB/s = 27.8% of spec, 46.3% of rand-read")
}

// probeKeys draws n lookup keys from keys, uniformly with replacement.
func probeKeys(keys [][]byte, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = keys[rng.Intn(len(keys))]
	}
	return out
}

// ablation regenerates the design-choice measurements of §4.6/§6.2:
// nodes/key and the no-leaf-list insert ablation (footnote 10).
func ablation(w io.Writer, o Options) {
	header(w, "Ablations (§4.6, §6.2 fn10)", "nodes/key ≈1.25; no-list insert ≈ ARTOLC; D=5 best")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)

	t := cuckootrie.New(cuckootrie.Config{CapacityHint: o.Keys, AutoResize: true})
	for i, k := range keys {
		t.Set(k, uint64(i))
	}
	st := t.Stats()
	fmt.Fprintf(w, "nodes/key on rand-8: %.3f (paper: 1.25); load factor %.2f\n", st.NodesPerKey, st.LoadFactor)

	// Insert-throughput ablation: leaf list on vs off vs ARTOLC.
	full, _ := engineByName("CuckooTrie")
	noList := Engine{Name: "CuckooTrie-nolist", Concurrent: true,
		New: func(c int) index.Index {
			return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true, DisableLeafList: true})
		}}
	artE, _ := engineByName("ARTOLC")
	fmt.Fprintf(w, "\nLOAD throughput (Mops/s, 1 thread):\n")
	for _, e := range []Engine{full, noList, artE} {
		fmt.Fprintf(w, "  %-18s %8.3f\n", e.Name, runWorkload(e, ycsb.Load, keys, len(keys), o.Ops, 1, o.Seed))
	}

	fmt.Fprintln(w, "\nprefetch depth: see `ctbench multiget`, whose batch sweep (1/8/64) is the measured analogue")
}

package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	cuckootrie "repro"
	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/hot"
	"repro/internal/index"
	"repro/internal/memsim"
	"repro/internal/wormhole"
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

// fig2 regenerates the lookup latency breakdown: cycles (exec vs stall) and
// DRAM accesses per lookup on rand-8, via the memory simulator.
func fig2(w io.Writer, o Options) {
	header(w, "Figure 2: cycles and DRAM accesses per lookup (rand-8)",
		"CuckooTrie total < serial indexes' stall; effective DRAM latency ≈3x lower")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)

	type probeSource struct {
		name   string
		levels func(k []byte) [][]uint64
		depth  int // prefetch depth; 0 = serial
	}
	var sources []probeSource

	ct := cuckootrie.New(cuckootrie.Config{CapacityHint: o.Keys, AutoResize: true})
	a := art.New()
	h := hot.New()
	wh := wormhole.New()
	bt := btree.New()
	for i, k := range keys {
		ct.Set(k, uint64(i))
		a.Set(k, uint64(i))
		h.Set(k, uint64(i))
		wh.Set(k, uint64(i))
		bt.Set(k, uint64(i))
	}
	ctc := core(ct)
	sources = append(sources,
		probeSource{"CuckooTrie", ctc, 5},
		probeSource{"ARTOLC", a.LookupLevels, 0},
		probeSource{"HOT", h.LookupLevels, 0},
		probeSource{"Wormhole", wh.LookupLevels, 0},
		probeSource{"STX", bt.LookupLevels, 0},
	)

	fmt.Fprintf(w, "%-12s %9s %9s %9s %8s %14s\n",
		"index", "cycles", "exec", "stall", "DRAM/op", "eff.lat (cyc)")
	rng := rand.New(rand.NewSource(o.Seed + 7))
	probes := min(o.Ops, 20000)
	for _, src := range sources {
		sim := memsim.New(simConfig(o.Keys))
		var agg memsim.Aggregate
		// Warm the simulated cache, then measure.
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				agg = memsim.Aggregate{}
			}
			for i := 0; i < probes/2; i++ {
				k := keys[rng.Intn(len(keys))]
				levels := src.levels(k)
				var acc []memsim.Access
				if src.depth > 0 {
					acc = memsim.PrefetchedLevels(levels, src.depth, 8)
				} else {
					acc = memsim.SerialLevels(levels, 12)
				}
				agg.Add(sim.Run(acc))
			}
		}
		cyc, exec, stall, dram := agg.PerOp()
		fmt.Fprintf(w, "%-12s %9.0f %9.0f %9.0f %8.1f %14.1f\n",
			src.name, cyc, exec, stall, dram, agg.EffectiveDRAMLatency())
	}
	fmt.Fprintln(w, "paper (200M keys): CuckooTrie ~33.5 eff. cycles vs ~100+ for serial; STX stall 4413")
}

// simConfig scales the simulated LLC so that, as in the paper (§6.1), the
// index far exceeds cache capacity: the dataset-to-cache ratio — not the
// absolute size — drives the DRAM-bound behaviour Figure 2 shows.
func simConfig(keys int) memsim.Config {
	cfg := memsim.Default()
	lines := keys / 24
	if lines < 1024 {
		lines = 1024
	}
	if lines > cfg.CacheLines {
		lines = cfg.CacheLines
	}
	cfg.CacheLines = lines
	return cfg
}

// core adapts the Cuckoo Trie's LookupLevels through the public wrapper.
func core(t *cuckootrie.Trie) func(k []byte) [][]uint64 {
	return t.LookupLevels
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
	fmt.Fprintf(w, "%-22s", "CuckooTrie (paper-eq)")
	for _, ds := range dataset.All {
		keys := datasetKeys(ds, o.Keys, o.Seed)
		t := cuckootrie.New(cuckootrie.Config{CapacityHint: len(keys), AutoResize: true})
		for i, k := range keys {
			t.Set(k, uint64(i))
		}
		st := t.Stats()
		fmt.Fprintf(w, "%10.1f", st.PaperBytesPerKey)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s", "CuckooTrie (resize)")
	for _, ds := range dataset.All {
		keys := datasetKeys(ds, o.Keys, o.Seed)
		t := cuckootrie.New(cuckootrie.Config{CapacityHint: len(keys), AutoResize: true})
		for i, k := range keys {
			t.Set(k, uint64(i))
		}
		st := t.Stats()
		fmt.Fprintf(w, "%10.1f", st.PaperBytesPerKey*1.5)
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

// table3 regenerates the bandwidth analysis: DRAM and interconnect demand of
// the 28-thread YCSB-C run, versus hardware limits, derived from measured
// throughput and simulated per-op DRAM access counts.
func table3(w io.Writer, o Options) {
	header(w, "Table 3: memory bandwidth usage (YCSB-C, rand-8, all cores)",
		"DRAM demand well under limits: 3.6x under spec, 2.15x under random-read max")
	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	ct, _ := engineByName("CuckooTrie")
	th := runWorkload(ct, ycsb.C, keys, len(keys), o.Ops, o.Threads, o.Seed) // Mops/s

	// DRAM accesses per op from the simulator (cold-cache dominated).
	t := cuckootrie.New(cuckootrie.Config{CapacityHint: o.Keys, AutoResize: true})
	for i, k := range keys {
		t.Set(k, uint64(i))
	}
	sim := memsim.New(simConfig(o.Keys))
	var agg memsim.Aggregate
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < min(o.Ops, 20000); i++ {
		k := keys[rng.Intn(len(keys))]
		agg.Add(sim.Run(memsim.PrefetchedLevels(t.LookupLevels(k), 5, 8)))
	}
	_, _, _, dramPerOp := agg.PerOp()

	opsPerSec := th * 1e6
	dramBytesPerSec := opsPerSec * dramPerOp * 64
	const specDRAM = 256e9 // 2 x 6 DDR4-2666 channels (§6.6)
	const randReadMax = specDRAM * 0.6
	const specUPI = 93e9
	upi := dramBytesPerSec * 0.5 * 1.7 // half remote + coherence overhead
	fmt.Fprintf(w, "measured throughput: %.2f Mops/s; simulated DRAM accesses/op: %.1f\n", th, dramPerOp)
	fmt.Fprintf(w, "%-10s %14s %18s %18s\n", "resource", "GB/s demand", "% of spec max", "% of rand-read max")
	fmt.Fprintf(w, "%-10s %14.2f %18.1f %18.1f\n", "DRAM",
		dramBytesPerSec/1e9, dramBytesPerSec/specDRAM*100, dramBytesPerSec/randReadMax*100)
	fmt.Fprintf(w, "%-10s %14.2f %18.1f %18s\n", "UPI", upi/1e9, upi/specUPI*100, "-")
	fmt.Fprintln(w, "paper: DRAM 71.24 GB/s = 27.8% of spec, 46.3% of rand-read; UPI 61 GB/s = 65.5%")
}

// ablation regenerates the design-choice measurements of §4.6/§6.2:
// nodes/key, the no-leaf-list insert ablation (footnote 10), and a prefetch
// depth sweep.
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

	// Prefetch-depth sweep on the simulator.
	fmt.Fprintf(w, "\nsimulated lookup cycles by prefetch depth D (rand-8):\n")
	rng := rand.New(rand.NewSource(o.Seed))
	for _, d := range []int{1, 2, 3, 5, 8, 12} {
		sim := memsim.New(simConfig(o.Keys))
		var agg memsim.Aggregate
		for i := 0; i < min(o.Ops, 10000); i++ {
			k := keys[rng.Intn(len(keys))]
			agg.Add(sim.Run(memsim.PrefetchedLevels(t.LookupLevels(k), d, 8)))
		}
		cyc, _, _, _ := agg.PerOp()
		fmt.Fprintf(w, "  D=%-3d %8.0f cycles/lookup\n", d, cyc)
	}
}

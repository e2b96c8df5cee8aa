// Package bench regenerates every table and figure of the paper's
// evaluation (§6) by measuring wall-clock time on the host: workload
// generation, index loading, throughput and latency measurement, and
// paper-style text output. The cmd/ctbench binary and the root
// bench_test.go both drive this package.
//
// Absolute numbers will not match the paper's Xeon testbed; the shapes —
// who wins, by roughly what factor, where the crossovers fall — are the
// reproduction target (README "Benchmarks").
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	cuckootrie "repro"
	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/hot"
	"repro/internal/index"
	"repro/internal/mlpindex"
	"repro/internal/sharded"
	"repro/internal/skiplist"
	"repro/internal/wormhole"
	"repro/internal/ycsb"
)

// Options scales the experiments.
type Options struct {
	Keys    int // dataset size (the paper uses 71M–200M; default 200k)
	Ops     int // operations per workload measurement
	Threads int // "all cores" thread count for the multithreaded figures
	Shards  int // max shard count for the sharded scatter-gather figure
	Seed    int64
}

// Fill applies defaults.
func (o *Options) Fill() {
	if o.Keys <= 0 {
		o.Keys = 200_000
	}
	if o.Ops <= 0 {
		o.Ops = o.Keys
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Figure is one experiment: a table or figure of the paper, or one of its
// ablations. A text-only figure sets Text. A figure that measures into a
// Report sets Report and Render instead, and exactly those figures can be
// emitted as JSON.
type Figure struct {
	Name   string
	Text   func(w io.Writer, o Options)
	Report func(o Options) Report
	Render func(w io.Writer, o Options, rep Report)
}

// Figures lists every experiment once, in `ctbench all` order.
var Figures = []Figure{
	{Name: "table1", Text: table1},
	{Name: "fig2", Text: fig2},
	{Name: "fig6", Text: fig6},
	{Name: "fig7", Report: fig7Report, Render: renderFig7},
	{Name: "fig8", Report: fig8Report, Render: renderFig8},
	{Name: "fig9", Text: fig9},
	{Name: "fig10", Report: fig10Report, Render: renderFig10},
	{Name: "fig11", Text: fig11},
	{Name: "fig12", Text: fig12},
	{Name: "fig13", Text: fig13},
	{Name: "table3", Text: table3},
	{Name: "ablation", Text: ablation},
	{Name: "multiget", Text: multiGetBench},
	{Name: "sharded", Report: shardedReport, Render: renderSharded},
	{Name: "load", Report: loadReport, Render: renderLoad},
}

// Run measures the figure with o's defaults filled in and writes it to w:
// as text, or as one JSON Report when asJSON is set, which a text-only
// figure refuses.
func (f Figure) Run(w io.Writer, o Options, asJSON bool) error {
	o.Fill()
	if f.Report == nil {
		if asJSON {
			return fmt.Errorf("bench: %s has no JSON report", f.Name)
		}
		f.Text(w, o)
		return nil
	}
	rep := f.Report(o)
	if asJSON {
		return rep.WriteJSON(w)
	}
	f.Render(w, o, rep)
	return nil
}

// Engine describes one benchmarked index.
type Engine struct {
	Name       string
	New        func(capacity int) index.Index
	Concurrent bool // included in multithreaded figures
	Fixed8     bool // supports only 8-byte keys (MlpIndex)
	Scans      bool
}

// Engines returns the paper's index lineup (§6.1).
func Engines() []Engine {
	return []Engine{
		{Name: "CuckooTrie", Concurrent: true, Scans: true,
			New: func(c int) index.Index {
				return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
			}},
		{Name: "ARTOLC", Concurrent: true, Scans: true,
			New: func(c int) index.Index { return art.New() }},
		{Name: "HOT", Concurrent: true, Scans: true,
			New: func(c int) index.Index { return hot.New() }},
		{Name: "Wormhole", Concurrent: true, Scans: true,
			New: func(c int) index.Index { return wormhole.New() }},
		{Name: "STX", Concurrent: false, Scans: true,
			New: func(c int) index.Index { return btree.New() }},
	}
}

// ShardedEngine wraps e's factory in an N-shard scatter-gather engine (see
// internal/sharded): point ops route by key hash, batches fan out across
// shards on a worker pool, ordered ops merge the per-shard cursors. The
// name reflects the shard count actually built (power-of-two rounded), so
// figure rows are never attributed to a count that was not measured.
func ShardedEngine(e Engine, shards int) Engine {
	se, _ := ShardedEngineRouted(e, shards, "hash")
	// The historical registry name carries no router tag for hash.
	se.Name = fmt.Sprintf("%s-x%d", e.Name, sharded.RoundShards(shards))
	return se
}

// ShardedEngineRouted is ShardedEngine with an explicit routing mode from
// sharded.RouterByName ("hash", "range", "sampled"); the engine is named
// "<base>-<router>-xN". It reports false for an unknown router.
func ShardedEngineRouted(e Engine, shards int, router string) (Engine, bool) {
	mk, ok := sharded.RouterByName(router)
	if !ok {
		return Engine{}, false
	}
	inner := e.New
	shards = sharded.RoundShards(shards)
	return Engine{
		Name:       fmt.Sprintf("%s-%s-x%d", e.Name, router, shards),
		Concurrent: e.Concurrent,
		Fixed8:     e.Fixed8,
		Scans:      e.Scans,
		New:        func(c int) index.Index { return sharded.NewWithRouter(shards, c, inner, mk) },
	}, true
}

// ShardedEngines returns N-shard variants of the concurrent engines — the
// lineup of the sharded scatter-gather figure.
func ShardedEngines(shards int) []Engine {
	var out []Engine
	for _, e := range Engines() {
		if e.Concurrent {
			out = append(out, ShardedEngine(e, shards))
		}
	}
	return out
}

// engineByName finds an engine. A "-xN" suffix (e.g. "CuckooTrie-x4")
// resolves the base engine and wraps it in an N-shard hash-routed variant;
// a router-qualified suffix (e.g. "CuckooTrie-sampled-x4") selects the
// routing mode.
func engineByName(name string) (Engine, bool) {
	if i := strings.LastIndex(name, "-x"); i > 0 {
		if shards, err := strconv.Atoi(name[i+2:]); err == nil && shards > 0 {
			base := name[:i]
			if j := strings.LastIndex(base, "-"); j > 0 {
				if _, isRouter := sharded.RouterByName(base[j+1:]); isRouter {
					if be, ok := engineByName(base[:j]); ok {
						if se, ok := ShardedEngineRouted(be, shards, base[j+1:]); ok {
							return se, true
						}
					}
					return Engine{}, false
				}
			}
			if be, ok := engineByName(base); ok {
				return ShardedEngine(be, shards), true
			}
		}
	}
	for _, e := range Engines() {
		if e.Name == name {
			return e, true
		}
	}
	switch name {
	case "MlpIndex":
		return Engine{Name: "MlpIndex", Fixed8: true,
			New: func(c int) index.Index { return mlpindex.New(c) }}, true
	case "SkipList":
		return Engine{Name: "SkipList", Scans: true,
			New: func(c int) index.Index { return skiplist.New(7) }}, true
	}
	return Engine{}, false
}

// load inserts keys[0:n] into a fresh index through the bulk-load path, so
// harness setup rides the partitioned ingest of sharded engines instead of
// serializing one Set at a time.
func load(e Engine, keys [][]byte, n int) index.Index {
	ix := e.New(n)
	if _, err := ycsb.LoadPhase(ix, keys[:n]); err != nil {
		panic(fmt.Sprintf("%s load: %v", e.Name, err))
	}
	return ix
}

// mops converts an op count and duration to millions of ops per second.
func mops(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}

// runWorkload measures a YCSB workload with the given thread count.
// keys[0:loaded] are pre-loaded; the rest feed inserts.
func runWorkload(e Engine, w ycsb.Workload, keys [][]byte, loaded, ops, threads int, seed int64) float64 {
	m, _ := measureWorkload(e, w, keys, loaded, ops, threads, seed, false)
	return m
}

// runWorkloadLat is runWorkload with per-op latency capture: the engine
// runs behind index.Tracked (one clock pair per op on top of the
// workload), a sampler watches per-timeslice throughput for the
// stability check, and the merged per-op distribution becomes the cell's
// latency columns. Figures that report tails use this path; figures that
// only compare throughput keep the untracked one.
func runWorkloadLat(e Engine, w ycsb.Workload, keys [][]byte, loaded, ops, threads int, seed int64) (float64, latCell) {
	return measureWorkload(e, w, keys, loaded, ops, threads, seed, true)
}

func measureWorkload(e Engine, w ycsb.Workload, keys [][]byte, loaded, ops, threads int, seed int64, track bool) (float64, latCell) {
	if w == ycsb.Load {
		// LOAD measures insertion of the whole dataset.
		return runLoad(e, keys, threads, seed, track)
	}
	ix := load(e, keys, loaded)
	var (
		target index.Index = ix
		tr     *index.TrackedIndex
		smp    *cvSampler
	)
	if track {
		tr = index.Tracked(ix)
		target = tr
		smp = startCVSampler(tr.TotalOps)
	}
	perThread := ops / threads
	extraPer := (len(keys) - loaded) / max(threads, 1)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// Each thread gets a disjoint slice of insert keys.
			lo := loaded + t*extraPer
			hi := lo + extraPer
			if hi > len(keys) {
				hi = len(keys)
			}
			tk := make([][]byte, 0, loaded+hi-lo)
			tk = append(tk, keys[:loaded]...)
			tk = append(tk, keys[lo:hi]...)
			g := ycsb.NewGenerator(w, ycsb.Uniform, tk, loaded, seed+int64(t))
			g.Run(target, perThread)
		}(t)
	}
	wg.Wait()
	m := mops(perThread*threads, time.Since(start))
	var lat latCell
	if track {
		lat = latFromSnapshot(tr.Snapshot(), seed)
		lat.CVPct = smp.CVPct()
	}
	return m, lat
}

func runLoad(e Engine, keys [][]byte, threads int, seed int64, track bool) (float64, latCell) {
	var (
		target index.Index = e.New(len(keys))
		tr     *index.TrackedIndex
		smp    *cvSampler
	)
	if track {
		tr = index.Tracked(target)
		target = tr
		smp = startCVSampler(tr.TotalOps)
	}
	per := len(keys) / threads
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo, hi := t*per, (t+1)*per
			if t == threads-1 {
				hi = len(keys)
			}
			for i := lo; i < hi; i++ {
				if _, err := target.Set(keys[i], uint64(i)); err != nil {
					panic(fmt.Sprintf("%s load: %v", e.Name, err))
				}
			}
		}(t)
	}
	wg.Wait()
	m := mops(len(keys), time.Since(start))
	var lat latCell
	if track {
		lat = latFromSnapshot(tr.Snapshot(), seed)
		lat.CVPct = smp.CVPct()
	}
	return m, lat
}

// datasetKeys generates a dataset, memoized: the experiment grids request
// the same dataset for every (engine, workload) cell.
var (
	dsMu    sync.Mutex
	dsCache = map[string][][]byte{}
)

func datasetKeys(name dataset.Name, n int, seed int64) [][]byte {
	key := fmt.Sprintf("%s/%d/%d", name, n, seed)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ks, ok := dsCache[key]; ok {
		return ks
	}
	ks := dataset.Generate(name, n, seed)
	dsCache[key] = ks
	return ks
}

// header prints a figure/table banner. Every banner names GOMAXPROCS so
// multi-core results stay attributable to the schedule that produced them
// (a 1-core container's sharded numbers only bound the scatter overhead);
// figures with a shard/router axis add those to their own titles.
func header(w io.Writer, title, paperRef string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	fmt.Fprintf(w, "(paper: %s)\n", paperRef)
	fmt.Fprintf(w, "(env: GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
}

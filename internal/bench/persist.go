package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// persistModes are the persist figure's measurement modes, in presentation
// order: the memory-only ingest baseline, snapshot write and bulk-load
// recovery (keys/s through the cursor serializer and the partitioned
// loader), the per-op Set baseline, the same Set stream with a WAL append
// under each fsync policy, and WAL-only replay recovery.
var persistModes = []string{
	"load-mem", "snapshot", "recover",
	"set-mem", "wal-no", "wal-everysec", "wal-always", "wal-group", "wal-async", "replay",
}

// walAlwaysOpsCap bounds the fsync-per-op cell: one fsync per write is the
// point being measured, and a few hundred of them already average it out.
// The group/async cells take no cap — coalescing the fsync is exactly what
// makes the full op count affordable.
const walAlwaysOpsCap = 1000

// walGroupWriters/walGroupPipeline shape the group-commit cells: 8
// concurrent writers each parking on 64-deep pipelines — the shape the
// mini-Redis ack barrier produces under pipelined RESP load, and the
// writer count the ≥10×-over-wal-always target is defined against.
const (
	walGroupWriters  = 8
	walGroupPipeline = 64
)

// persistEngines is the figure's lineup: the plain Cuckoo Trie, and its
// 4-shard sampled-routed variant — whose recovery cell exercises exactly
// the ROADMAP path of an untrained router learning its boundaries from the
// snapshot stream (the recovered cell's balance column proves it).
func persistEngines() []Engine {
	ct, _ := engineByName("CuckooTrie")
	se, _ := ShardedEngineRouted(ct, 4, "sampled")
	return []Engine{ct, se}
}

// persistReport measures the durability subsystem against the memory-only
// baseline on rand-8: what ingest, snapshot, recovery and the write-path
// WAL each cost. One measurement path feeds the text table and -json.
func persistReport(o Options) Report {
	o.Fill()
	rep := newReport("persist", o)
	rep.MaxShards = 4 // the sampled variant's fixed shard count
	rep.Writers = walGroupWriters

	ks := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	vals := valsFor(ks)
	nops := min(o.Ops, len(ks))

	for _, e := range persistEngines() {
		dir, err := os.MkdirTemp("", "ctbench-persist-*")
		if err != nil {
			panic(fmt.Sprintf("persist figure: %v", err))
		}
		row := func(mode string, ops int, d time.Duration, balance float64, lat latCell) {
			r := Row{
				Engine:  e.Name,
				Dataset: string(dataset.Rand8),
				Mode:    mode,
				Shards:  1,
				Mops:    mops(ops, d),
				Balance: balance,
			}
			applyLat(&r, lat)
			rep.Rows = append(rep.Rows, r)
		}

		// Memory-only bulk load: the ingest baseline.
		ix := e.New(len(ks))
		start := time.Now()
		if _, err := index.BulkLoad(ix, ks, vals); err != nil {
			panic(fmt.Sprintf("%s load: %v", e.Name, err))
		}
		row("load-mem", len(ks), time.Since(start), 0, latCell{})

		// Snapshot write: the loaded index through its cursor to disk.
		start = time.Now()
		if _, err := persist.SaveIndex(dir, 0, ix); err != nil {
			panic(fmt.Sprintf("%s snapshot: %v", e.Name, err))
		}
		row("snapshot", len(ks), time.Since(start), 0, latCell{})

		// Recovery: snapshot bulk-loaded into a fresh index — for the
		// sampled variant the router trains from this very stream, and the
		// balance column records how well.
		start = time.Now()
		rec, _, err := persist.RecoverIndex(dir, e.New)
		if err != nil {
			panic(fmt.Sprintf("%s recover: %v", e.Name, err))
		}
		row("recover", len(ks), time.Since(start), balanceOf(rec), latCell{})

		// Per-op Set baseline, then Set+WAL under each fsync policy. Each
		// iteration (Set, plus the WAL append when one is wired in) is one
		// latency sample — the write path a serial server would charge one
		// command.
		setLoop := func(wal *persist.WAL, n int) (time.Duration, latCell) {
			fresh := e.New(n)
			h := metrics.New()
			start := time.Now()
			for i := 0; i < n; i++ {
				opStart := time.Now()
				if _, err := fresh.Set(ks[i], vals[i]); err != nil {
					panic(fmt.Sprintf("%s set: %v", e.Name, err))
				}
				if wal != nil {
					if _, err := wal.Append(persist.OpSet, "", ks[i], vals[i]); err != nil {
						panic(fmt.Sprintf("%s wal append: %v", e.Name, err))
					}
				}
				h.RecordDuration(int64(time.Since(opStart)))
			}
			return time.Since(start), latFromSnapshot(h.Snapshot(), o.Seed)
		}
		d, lat := setLoop(nil, nops)
		row("set-mem", nops, d, 0, lat)

		// Group-commit cells: walGroupWriters concurrent writers, each
		// applying+logging a pipeline under a shared mutex (engines need not
		// be concurrent-safe; the real server orders apply+log the same way)
		// and then parking on the pipeline's last LSN (group) or acking
		// immediately (async). The writers share the syncer's coalesced
		// fsyncs, which is the entire measurement.
		// Each writer's pipeline — lock, apply+append 64 ops, then park on
		// Commit (group) or ack immediately (async) — is one latency
		// sample: the unit a pipelined RESP client would wait on.
		groupLoop := func(pol persist.FsyncPolicy, n int) (time.Duration, latCell) {
			walDir, err := os.MkdirTemp("", "ctbench-wal-*")
			if err != nil {
				panic(fmt.Sprintf("persist figure: %v", err))
			}
			defer os.RemoveAll(walDir)
			wal, err := persist.OpenWAL(walDir, persist.WALOptions{Policy: pol})
			if err != nil {
				panic(fmt.Sprintf("%s wal open: %v", e.Name, err))
			}
			fresh := e.New(n)
			h := metrics.New()
			var setMu sync.Mutex
			var wg sync.WaitGroup
			per := n / walGroupWriters
			start := time.Now()
			for g := 0; g < walGroupWriters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lo, hi := g*per, (g+1)*per
					if g == walGroupWriters-1 {
						hi = n
					}
					for i := lo; i < hi; {
						end := min(i+walGroupPipeline, hi)
						var last uint64
						pipeStart := time.Now()
						setMu.Lock()
						for ; i < end; i++ {
							if _, err := fresh.Set(ks[i], vals[i]); err != nil {
								panic(fmt.Sprintf("%s set: %v", e.Name, err))
							}
							if last, err = wal.Append(persist.OpSet, "", ks[i], vals[i]); err != nil {
								panic(fmt.Sprintf("%s wal append: %v", e.Name, err))
							}
						}
						setMu.Unlock()
						if pol == persist.FsyncGroup {
							if err := wal.Commit(last); err != nil {
								panic(fmt.Sprintf("%s wal commit: %v", e.Name, err))
							}
						}
						h.RecordDuration(int64(time.Since(pipeStart)))
					}
				}(g)
			}
			wg.Wait()
			d := time.Since(start)
			if err := wal.Close(); err != nil {
				panic(fmt.Sprintf("%s wal close: %v", e.Name, err))
			}
			return d, latFromSnapshot(h.Snapshot(), o.Seed)
		}

		var replayDir string
		for _, pol := range []persist.FsyncPolicy{persist.FsyncNo, persist.FsyncEverySec, persist.FsyncAlways} {
			n := nops
			if pol == persist.FsyncAlways {
				n = min(n, walAlwaysOpsCap)
			}
			walDir, err := os.MkdirTemp("", "ctbench-wal-*")
			if err != nil {
				panic(fmt.Sprintf("persist figure: %v", err))
			}
			wal, err := persist.OpenWAL(walDir, persist.WALOptions{Policy: pol})
			if err != nil {
				panic(fmt.Sprintf("%s wal open: %v", e.Name, err))
			}
			d, lat := setLoop(wal, n)
			if err := wal.Close(); err != nil {
				panic(fmt.Sprintf("%s wal close: %v", e.Name, err))
			}
			row("wal-"+pol.String(), n, d, 0, lat)
			if pol == persist.FsyncNo {
				replayDir = walDir // reuse its records for the replay cell
			} else {
				os.RemoveAll(walDir)
			}
		}
		d, lat = groupLoop(persist.FsyncGroup, nops)
		row("wal-group", nops, d, 0, lat)
		d, lat = groupLoop(persist.FsyncAsync, nops)
		row("wal-async", nops, d, 0, lat)

		// WAL-only recovery: replay throughput with no snapshot to seed.
		start = time.Now()
		replayed, _, err := persist.RecoverIndex(replayDir, e.New)
		if err != nil {
			panic(fmt.Sprintf("%s replay: %v", e.Name, err))
		}
		if replayed.Len() == 0 {
			panic("persist figure: replay recovered nothing")
		}
		row("replay", nops, time.Since(start), 0, latCell{})

		os.RemoveAll(replayDir)
		os.RemoveAll(dir)
	}
	return rep
}

// FigPersist renders the durability figure: Mops/s per mode (columns) and
// engine (rows). load-mem vs snapshot/recover/replay is the
// serialize-and-rebuild cost of the durable store; set-mem vs the wal-*
// columns is the write-path WAL overhead under each fsync policy (the
// wal-always column pays one fsync per op and is measured over at most
// 1000 ops). The recover cell of the sampled-sharded engine trains its
// router boundaries from the snapshot stream; the balance footer shows the
// resulting max/mean shard load.
func FigPersist(w io.Writer, o Options) {
	o.Fill()
	rep := persistReport(o)
	header(w, "Persist: snapshot + WAL subsystem throughput by mode (Mops/s)",
		"durable serving; recovery = bulk load of the snapshot stream + WAL tail replay")
	rows := rowIndex(rep)
	fmt.Fprintf(w, "\n%-22s", "")
	for _, m := range persistModes {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)
	for _, e := range persistEngines() {
		fmt.Fprintf(w, "%-22s", e.Name)
		for _, m := range persistModes {
			r := rows[Row{Engine: e.Name, Dataset: string(dataset.Rand8), Mode: m, Shards: 1}.axes()]
			fmt.Fprintf(w, "%14.3f", r.Mops)
		}
		fmt.Fprintln(w)
	}
	for _, e := range persistEngines() {
		r := rows[Row{Engine: e.Name, Dataset: string(dataset.Rand8), Mode: "recover", Shards: 1}.axes()]
		if r.Balance > 0 {
			fmt.Fprintf(w, "%s recovered balance: %.2f max/mean shard keys (boundaries trained from the snapshot stream)\n",
				e.Name, r.Balance)
		}
	}
	fmt.Fprintf(w, "\n%-22s latency µs (p50/p99/p999 ± p99 CI) per write-path cell:\n", "")
	for _, e := range persistEngines() {
		fmt.Fprintf(w, "%-22s", e.Name)
		for _, m := range persistModes {
			r := rows[Row{Engine: e.Name, Dataset: string(dataset.Rand8), Mode: m, Shards: 1}.axes()]
			fmt.Fprintf(w, " %21s", latCol(r))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(wal-always measured over ≤%d ops: one fsync per op is the cost under test)\n", walAlwaysOpsCap)
	fmt.Fprintf(w, "(wal-group/wal-async: %d concurrent writers, %d-deep pipelines, full op count — the coalesced fsync is the win under test)\n",
		walGroupWriters, walGroupPipeline)
	fmt.Fprintf(w, "(latency: set-mem/wal-no/everysec/always per op; wal-group/wal-async per %d-op pipeline incl. the Commit park)\n",
		walGroupPipeline)
}

// FigPersistJSON is FigPersist's -json mode: the same measurements as one
// JSON report for machine diffing across runs.
func FigPersistJSON(w io.Writer, o Options) error {
	return persistReport(o).WriteJSON(w)
}

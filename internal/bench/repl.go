package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/persist"
)

// replCounts is the repl figure's replica-count sweep: the primary alone,
// then the primary plus 1, 2 and 4 WAL-shipped read replicas.
var replCounts = []int{0, 1, 2, 4}

// replLagBurst is the write burst behind the lag column: this many fresh
// ZADDs through the primary, then WAIT until every replica has applied
// them. Fresh keys force one WAL record each — an update burst could be
// absorbed by the trie without measuring the shipping path.
const replLagBurst = 1000

// replSyncTimeout bounds how long a newly attached replica may take to
// finish its full sync before the figure gives up.
const replSyncTimeout = 60 * time.Second

// replReport measures the replication subsystem: pipelined ZSCORE
// throughput with the reads spread round-robin across the primary and N
// memory-only replicas, plus the replication lag of a write burst (time
// from the last write's reply on the primary until WAIT reports every
// replica has applied it). Each serial server is single-core-bound, so on
// a multi-core host the read rows scale with the node count; on
// GOMAXPROCS=1 the sweep instead bounds the replication overhead (the
// report banner records which run this was).
func replReport(o Options) Report {
	o.Fill()
	rep := newReport("repl", o)
	rep.MaxShards = 1 // replication fans out whole keyspaces, not shards

	keys := min(o.Keys, 50_000) // RESP round trips dominate; keep it snappy
	ops := min(o.Ops, 4*keys)
	e, _ := engineByName("CuckooTrie")
	ks := datasetKeys(dataset.Rand8, keys, o.Seed)
	vals := valsFor(ks)

	dir, err := os.MkdirTemp("", "ctbench-repl-*")
	if err != nil {
		panic(fmt.Sprintf("repl figure: %v", err))
	}
	defer os.RemoveAll(dir)

	// Persistent serial primary: replication ships the WAL, so the primary
	// must have one. FsyncNo keeps disk flushes out of the lag column.
	prim := miniredis.NewServer(e.New, keys, true)
	if _, err := prim.EnablePersistenceWithOptions(dir, miniredis.PersistOptions{Policy: persist.FsyncNo}); err != nil {
		panic(fmt.Sprintf("repl figure: enable persistence: %v", err))
	}
	if _, err := prim.Preload("bench", ks, vals); err != nil {
		panic(fmt.Sprintf("repl figure: preload: %v", err))
	}
	paddr, err := prim.Listen("127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("repl figure: %v", err))
	}
	defer func() {
		if err := prim.Close(); err != nil {
			panic(fmt.Sprintf("repl figure: close primary: %v", err))
		}
	}()

	pc, err := miniredis.Dial(paddr)
	if err != nil {
		panic(fmt.Sprintf("repl figure: %v", err))
	}
	defer pc.Close()

	var replicas []*miniredis.Server
	defer func() {
		for _, r := range replicas {
			//ctvet:ignore memory-only replica (no WAL): Close has nothing durable to flush
			r.Close()
		}
	}()
	addrs := []string{paddr}

	for round, n := range replCounts {
		// Grow the replica set to n and wait for each newcomer's sync: a
		// replica serving reads before its snapshot lands would inflate
		// the throughput column with empty-keyspace misses.
		want := replDBSize(pc)
		for len(replicas) < n {
			rs := miniredis.NewServer(e.New, keys, true)
			raddr, err := rs.Listen("127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("repl figure: replica listen: %v", err))
			}
			if _, err := rs.ReplicaOf(paddr, 0); err != nil {
				panic(fmt.Sprintf("repl figure: attach replica: %v", err))
			}
			replicas = append(replicas, rs)
			addrs = append(addrs, raddr)
			replWaitSynced(raddr, want)
		}

		mopsRead, lat := replReadMops(addrs, ks, ops, o.Threads, o.Seed)
		lag := 0.0
		if n > 0 {
			lag = replLagMS(pc, n, round)
		}
		row := Row{
			Engine:   e.Name,
			Dataset:  string(dataset.Rand8),
			Mode:     "read",
			Shards:   1,
			Threads:  o.Threads,
			Replicas: n,
			Mops:     mopsRead,
			LagMS:    lag,
		}
		applyLat(&row, lat)
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// replDBSize reads DBSIZE through a client.
func replDBSize(c *miniredis.Client) int64 {
	v, err := c.Do([]byte("DBSIZE"))
	if err != nil {
		panic(fmt.Sprintf("repl figure: DBSIZE: %v", err))
	}
	n, ok := v.(int64)
	if !ok {
		panic(fmt.Sprintf("repl figure: DBSIZE reply %T", v))
	}
	return n
}

// replWaitSynced polls a replica until its keyspace holds at least want
// keys — the signal that its initial sync (snapshot + WAL tail) landed.
func replWaitSynced(addr string, want int64) {
	cl, err := miniredis.Dial(addr)
	if err != nil {
		panic(fmt.Sprintf("repl figure: dial replica: %v", err))
	}
	defer cl.Close()
	deadline := time.Now().Add(replSyncTimeout)
	for replDBSize(cl) < want {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("repl figure: replica %s stuck below %d keys after %v", addr, want, replSyncTimeout))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replReadMops measures pipelined ZSCORE throughput with threads client
// connections spread round-robin across the given nodes (primary first).
// Throughput is total ops over the slowest client's wall time, matching
// the other figures' multithreaded convention. Every client records each
// pipeline's round trip into one shared (lock-free) histogram, so the
// latency columns see all nodes, not just the fastest.
func replReadMops(addrs []string, ks [][]byte, ops, threads int, seed int64) (float64, latCell) {
	per := ops / threads
	if per == 0 {
		per = 1
	}
	h := metrics.New()
	done := make(chan time.Duration, threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			cl, err := miniredis.Dial(addrs[t%len(addrs)])
			if err != nil {
				panic(fmt.Sprintf("repl figure: dial: %v", err))
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed + int64(t)))
			set := []byte("bench")
			var pipe [][][]byte
			start := time.Now()
			for i := 0; i < per; i++ {
				pipe = append(pipe, [][]byte{[]byte("ZSCORE"), set, ks[rng.Intn(len(ks))]})
				if len(pipe) >= 64 {
					rtt := time.Now()
					if _, err := cl.Pipeline(pipe); err != nil {
						panic(fmt.Sprintf("repl figure: read pipeline: %v", err))
					}
					h.RecordDuration(int64(time.Since(rtt)))
					pipe = pipe[:0]
				}
			}
			if len(pipe) > 0 {
				rtt := time.Now()
				if _, err := cl.Pipeline(pipe); err != nil {
					panic(fmt.Sprintf("repl figure: read pipeline: %v", err))
				}
				h.RecordDuration(int64(time.Since(rtt)))
			}
			done <- time.Since(start)
		}(t)
	}
	var maxDur time.Duration
	for t := 0; t < threads; t++ {
		if d := <-done; d > maxDur {
			maxDur = d
		}
	}
	return mops(per*threads, maxDur), latFromSnapshot(h.Snapshot(), seed)
}

// replLagMS writes a burst of fresh keys through the primary, then times
// how long WAIT n takes to report every replica has applied it. The clock
// starts after the burst's replies: what is measured is shipping + apply +
// ack, not the primary's own write path.
func replLagMS(pc *miniredis.Client, n, round int) float64 {
	set := []byte("bench")
	var pipe [][][]byte
	for i := 0; i < replLagBurst; i++ {
		key := []byte(fmt.Sprintf("lag-%d-%06d", round, i))
		pipe = append(pipe, [][]byte{[]byte("ZADD"), set, key, []byte(fmt.Sprint(i))})
		if len(pipe) >= 128 {
			if _, err := pc.Pipeline(pipe); err != nil {
				panic(fmt.Sprintf("repl figure: lag burst: %v", err))
			}
			pipe = pipe[:0]
		}
	}
	if len(pipe) > 0 {
		if _, err := pc.Pipeline(pipe); err != nil {
			panic(fmt.Sprintf("repl figure: lag burst: %v", err))
		}
	}
	start := time.Now()
	v, err := pc.Do([]byte("WAIT"), []byte(fmt.Sprint(n)), []byte("60000"))
	if err != nil {
		panic(fmt.Sprintf("repl figure: WAIT: %v", err))
	}
	if acked, ok := v.(int64); !ok || acked < int64(n) {
		panic(fmt.Sprintf("repl figure: WAIT %d returned %v", n, v))
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// FigRepl renders the replication figure: pipelined read throughput with
// the reads spread across the primary plus 0/1/2/4 WAL-shipped replicas,
// and the lag column — how long a 1000-write burst takes to be applied and
// acked by every replica (the WAIT round trip). Serial servers are
// single-core-bound, so read rows scale with node count on multi-core
// hosts; a GOMAXPROCS=1 run bounds replication overhead instead.
func FigRepl(w io.Writer, o Options) {
	o.Fill()
	rep := replReport(o)
	header(w, "Repl: read throughput vs WAL-shipped replica count (Mops/s)",
		"read scaling via replicas; lag = write burst shipped + applied + acked (WAIT)")
	rows := rowIndex(rep)
	fmt.Fprintf(w, "\n%-22s", "replicas")
	for _, n := range replCounts {
		fmt.Fprintf(w, "%14d", n)
	}
	fmt.Fprintf(w, "\n%-22s", "read Mops/s")
	for _, n := range replCounts {
		r := rows[Row{Engine: "CuckooTrie", Dataset: string(dataset.Rand8), Mode: "read",
			Shards: 1, Threads: o.Threads, Replicas: n}.axes()]
		fmt.Fprintf(w, "%14.3f", r.Mops)
	}
	fmt.Fprintf(w, "\n%-22s", "burst lag ms")
	for _, n := range replCounts {
		if n == 0 {
			fmt.Fprintf(w, "%14s", "-")
			continue
		}
		r := rows[Row{Engine: "CuckooTrie", Dataset: string(dataset.Rand8), Mode: "read",
			Shards: 1, Threads: o.Threads, Replicas: n}.axes()]
		fmt.Fprintf(w, "%14.3f", r.LagMS)
	}
	fmt.Fprintf(w, "\n%-22s", "read RTT µs")
	for _, n := range replCounts {
		r := rows[Row{Engine: "CuckooTrie", Dataset: string(dataset.Rand8), Mode: "read",
			Shards: 1, Threads: o.Threads, Replicas: n}.axes()]
		fmt.Fprintf(w, " %13s", latCol(r))
	}
	fmt.Fprintf(w, "\n(lag: %d fresh ZADDs through the primary, then WAIT <replicas>; clock starts after the burst's replies)\n", replLagBurst)
	fmt.Fprintf(w, "(read RTT: per 64-op ZSCORE pipeline round trip, p50/p99/p999 ± p99 CI)\n")
}

// FigReplJSON is FigRepl's -json mode: the same measurements as one JSON
// report for machine diffing across runs.
func FigReplJSON(w io.Writer, o Options) error {
	return replReport(o).WriteJSON(w)
}

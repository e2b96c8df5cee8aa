package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/miniredis"
	"repro/internal/skiplist"
	"repro/internal/ycsb"
)

// fig13 regenerates the full-system benchmark: YCSB over the mini-Redis
// sorted set with each index as the engine, over loopback TCP with
// pipelining clients (§6.8). The "Redis default" engine is the
// hashtable+skiplist pair Redis uses (our skiplist keeps a Go map alongside
// for point lookups, matching Redis's dual structure).
func fig13(w io.Writer, o Options) {
	keys := min(o.Keys, 50_000) // RESP round trips dominate; keep it snappy
	ops := min(o.Ops, keys)
	header(w, "Figure 13: mini-Redis sorted-set throughput (Mops/s)",
		"CuckooTrie best on A-D except az; YCSB-E overlap hides leaf-list latency (§6.8)")

	engines := []Engine{}
	for _, e := range Engines() {
		engines = append(engines, e)
	}
	engines = append(engines, Engine{Name: "Redis-default", Scans: true,
		New: func(c int) index.Index { return newRedisDefault() }})

	workloads := []ycsb.Workload{ycsb.Load, ycsb.A, ycsb.C, ycsb.D, ycsb.E}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\nYCSB-%s:\n%-14s", wl, "")
		for _, ds := range dataset.All {
			fmt.Fprintf(w, "%10s", ds)
		}
		fmt.Fprintln(w)
		for _, e := range engines {
			fmt.Fprintf(w, "%-14s", e.Name)
			for _, ds := range dataset.All {
				ks := datasetKeys(ds, keys, o.Seed)
				th := runRedisWorkload(e, wl, ks, ops, o.Seed)
				fmt.Fprintf(w, "%10.3f", th)
			}
			fmt.Fprintln(w)
		}
	}
}

// runRedisWorkload runs one workload through the RESP server with 4
// pipelining client connections (the paper's best-performing client count).
func runRedisWorkload(e Engine, wl ycsb.Workload, keys [][]byte, ops int, seed int64) float64 {
	srv := miniredis.NewServerExec(e.New, len(keys), miniredis.ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	//ctvet:ignore memory-only server (no WAL): Close has nothing durable to flush
	defer srv.Close()

	loaded := len(keys)
	if wl == ycsb.D || wl == ycsb.E {
		loaded = len(keys) * 9 / 10
	}
	setName := []byte("bench")

	// Load phase (pipelined batches).
	loadClient, err := miniredis.Dial(addr)
	if err != nil {
		panic(err)
	}
	loadStart := time.Now()
	const batch = 64
	var cmds [][][]byte
	for i := 0; i < loaded; i++ {
		cmds = append(cmds, [][]byte{[]byte("ZADD"), setName, keys[i], []byte(fmt.Sprint(i))})
		if len(cmds) == batch || i == loaded-1 {
			if _, err := loadClient.Pipeline(cmds); err != nil {
				panic(err)
			}
			cmds = cmds[:0]
		}
	}
	loadDur := time.Since(loadStart)
	loadClient.Close()
	if wl == ycsb.Load {
		return mops(loaded, loadDur)
	}

	// Run phase: 4 client goroutines issuing pipelined batches.
	const clients = 4
	perClient := ops / clients
	done := make(chan time.Duration, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			cl, err := miniredis.Dial(addr)
			if err != nil {
				panic(err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			g := ycsb.NewGenerator(wl, ycsb.Uniform, keys, loaded, seed+int64(c))
			start := time.Now()
			var pipe [][][]byte
			flush := func() {
				if len(pipe) == 0 {
					return
				}
				if _, err := cl.Pipeline(pipe); err != nil {
					panic(err)
				}
				pipe = pipe[:0]
			}
			for i := 0; i < perClient; i++ {
				op, key, scanLen := g.Next()
				if key == nil {
					continue
				}
				switch op {
				case ycsb.OpInsert, ycsb.OpUpdate, ycsb.OpRMW:
					pipe = append(pipe, [][]byte{[]byte("ZADD"), setName, key, []byte(fmt.Sprint(rng.Intn(1 << 20)))})
				case ycsb.OpRead:
					pipe = append(pipe, [][]byte{[]byte("ZSCORE"), setName, key})
				case ycsb.OpScan:
					pipe = append(pipe, [][]byte{[]byte("ZRANGEBYLEX"), setName, key, []byte(fmt.Sprint(scanLen))})
				}
				if len(pipe) >= 16 {
					flush()
				}
			}
			flush()
			done <- time.Since(start)
		}(c)
	}
	var maxDur time.Duration
	for c := 0; c < clients; c++ {
		if d := <-done; d > maxDur {
			maxDur = d
		}
	}
	return mops(perClient*clients, maxDur)
}

// redisDefault mimics Redis's sorted set: a hash map for point lookups plus
// a skip list for ordered operations, with every key in both (§6.8).
type redisDefault struct {
	m  map[string]uint64
	sl *skiplist.List
}

func newRedisDefault() index.Index {
	return &redisDefault{m: make(map[string]uint64), sl: skiplist.New(11)}
}

func (r *redisDefault) Name() string { return "Redis-default" }
func (r *redisDefault) Len() int     { return len(r.m) }

func (r *redisDefault) Set(k []byte, v uint64) (bool, error) {
	_, existed := r.m[string(k)]
	r.m[string(k)] = v
	if _, err := r.sl.Set(k, v); err != nil {
		return false, err
	}
	return !existed, nil
}

func (r *redisDefault) Get(k []byte) (uint64, bool) {
	v, ok := r.m[string(k)]
	return v, ok
}

func (r *redisDefault) MultiGet(keys [][]byte, vals []uint64, found []bool) {
	index.FallbackMultiGet(r, keys, vals, found)
}

func (r *redisDefault) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	return index.FallbackMultiSet(r, keys, vals, errs)
}

func (r *redisDefault) NewCursor() index.Cursor { return index.NewScanCursor(r) }

func (r *redisDefault) Delete(k []byte) bool {
	if _, ok := r.m[string(k)]; !ok {
		return false
	}
	delete(r.m, string(k))
	r.sl.Delete(k)
	return true
}

func (r *redisDefault) Scan(start []byte, n int, fn func([]byte, uint64) bool) int {
	return r.sl.Scan(start, n, fn)
}

func (r *redisDefault) MemoryOverheadBytes() int64 {
	// map entry ≈ 48B + key header; both structures hold every key.
	return int64(len(r.m))*56 + r.sl.MemoryOverheadBytes()
}

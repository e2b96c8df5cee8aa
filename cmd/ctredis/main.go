// Command ctredis serves the mini-Redis store with a selectable sorted-set
// engine (paper §6.8). Try it with redis-cli:
//
//	ctredis -addr :6380 -engine CuckooTrie
//	redis-cli -p 6380 ZADD s hello 1
//
// With -data-dir the store is durable: the directory is recovered on boot
// (newest valid snapshot bulk-loaded, then the WAL tail replayed), writes
// append to the segmented WAL under the -fsync policy, and SAVE/BGSAVE —
// or -snapshot-every N — cut compacting snapshots:
//
//	ctredis -data-dir /var/lib/ctredis -fsync everysec -snapshot-every 100000
//
// With -replicaof the server boots as a memory-only read replica: it syncs
// from the primary (full snapshot stream or partial WAL tail), follows the
// replicated log, answers reads, and rejects client writes with -READONLY.
// REPLICAOF NO ONE promotes it back to a writable standalone:
//
//	ctredis -addr :6381 -replicaof 127.0.0.1:6380
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	cuckootrie "repro"
	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/hot"
	"repro/internal/index"
	"repro/internal/miniredis"
	"repro/internal/persist"
	"repro/internal/sharded"
	"repro/internal/skiplist"
	"repro/internal/wormhole"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "listen address")
	engine := flag.String("engine", "CuckooTrie", "sorted-set engine: CuckooTrie|ARTOLC|HOT|Wormhole|STX|SkipList")
	capacity := flag.Int("capacity", 1<<20, "expected keys per sorted set")
	shards := flag.Int("shards", 1, "shards per sorted set (>1 enables scatter-gather across cores)")
	router := flag.String("router", "hash", "key→shard routing for sharded sets: hash|range|sampled (range/sampled keep scans single-shard when possible; sampled derives balanced shard boundaries from the preload stream)")
	preload := flag.Int("preload", 0, "bulk-load N random 8-byte keys into set 'bench' before serving (partitioned load for sharded sets; trains the sampled router's boundaries)")
	dataDir := flag.String("data-dir", "", "enable persistence: recover this directory on boot (snapshot + WAL replay) and log writes to it")
	fsync := flag.String("fsync", "everysec", "WAL fsync policy with -data-dir: always|everysec|no|group|async (group batches a pipeline's writes into one fsync before acking; async acks immediately and tracks durability via the DurableLSN watermark in INFO persistence)")
	snapEvery := flag.Int("snapshot-every", 0, "cut a background snapshot every N logged writes (0 disables; SAVE/BGSAVE always work)")
	autoRewrite := flag.Int64("auto-rewrite-bytes", 64<<20, "rewrite the log (background snapshot + segment compaction) once the WAL grows this many bytes past the last snapshot (0 disables)")
	replicaOf := flag.String("replicaof", "", "replicate from this primary (host:port); the server is a memory-only read replica")
	execFlag := flag.String("exec", "serial", "command execution mode: serial (Redis's one-at-a-time loop, any engine) | striped-conn (per-connection concurrency; runs as serial when the engine is not concurrent-safe)")
	maxConns := flag.Int("maxconns", 0, "max simultaneous client connections; over the cap new connections get -ERR and are closed (0 = unlimited; rejections counted in INFO clients)")
	slowlogThreshold := flag.Duration("slowlog-threshold", 10*time.Millisecond, "log commands at least this slow to SLOWLOG (0 logs everything, negative disables)")
	flag.Parse()

	if *replicaOf != "" && *dataDir != "" {
		log.Fatal("-replicaof and -data-dir are mutually exclusive: a replica's durability is its primary's job")
	}
	if *replicaOf != "" && *preload > 0 {
		log.Fatal("-replicaof and -preload are mutually exclusive: a replica's keyspace mirrors the primary")
	}

	factories := map[string]miniredis.EngineFactory{
		"CuckooTrie": func(c int) index.Index {
			return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
		},
		"ARTOLC":   func(c int) index.Index { return art.New() },
		"HOT":      func(c int) index.Index { return hot.New() },
		"Wormhole": func(c int) index.Index { return wormhole.New() },
		"STX":      func(c int) index.Index { return btree.New() },
		"SkipList": func(c int) index.Index { return skiplist.New(7) },
	}
	f, ok := factories[*engine]
	if !ok {
		log.Fatalf("unknown engine %q", *engine)
	}
	name := *engine
	if *shards > 1 {
		mk, ok := sharded.RouterByName(*router)
		if !ok {
			log.Fatalf("unknown router %q (want hash, range or sampled)", *router)
		}
		f = miniredis.ShardedFactoryWithRouter(f, *shards, mk)
		name = fmt.Sprintf("%s x%d shards, %s-routed", name, sharded.RoundShards(*shards), *router)
	}
	mode, err := miniredis.ParseExecMode(*execFlag)
	if err != nil {
		log.Fatal(err)
	}
	srv := miniredis.NewServerExec(f, *capacity, mode)
	if srv.Mode() != mode {
		log.Printf("-exec %s needs a concurrent-safe engine and %s is not: running -exec %s", mode, *engine, srv.Mode())
	}
	srv.SetMaxConns(*maxConns)
	srv.SetSlowlogThreshold(*slowlogThreshold)
	recovered := 0
	if *dataDir != "" {
		policy, err := persist.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := srv.EnablePersistence(*dataDir, miniredis.PersistOptions{
			Policy:           policy,
			SnapshotEvery:    *snapEvery,
			AutoRewriteBytes: *autoRewrite,
		})
		if err != nil {
			log.Fatalf("recover %s: %v", *dataDir, err)
		}
		recovered = res.Keys()
		if recovered > 0 || res.Replayed > 0 {
			fmt.Printf("recovered %d keys (%d sets; snapshot LSN %d + %d WAL records, torn tail: %v) in %v\n",
				recovered, len(res.Sets), res.SnapshotLSN, res.Replayed, res.TornTail,
				time.Since(start).Round(time.Millisecond))
		}
	}
	if *preload > 0 && recovered > 0 {
		// A recovered keyspace already holds its data; preloading on top
		// would double-count the benchmark set.
		fmt.Printf("skipping -preload %d: recovered %d keys from %s\n", *preload, recovered, *dataDir)
	} else if *preload > 0 {
		keys := dataset.Generate(dataset.Rand8, *preload, 1)
		vals := make([]uint64, len(keys))
		for i := range vals {
			vals[i] = uint64(i)
		}
		start := time.Now()
		added, err := srv.Preload("bench", keys, vals)
		if err != nil {
			log.Fatalf("preload: %v", err)
		}
		d := time.Since(start)
		fmt.Printf("preloaded %d keys into 'bench' in %v (%.3f Mops/s)\n",
			added, d.Round(time.Millisecond), float64(len(keys))/d.Seconds()/1e6)
		if srv.Persistent() {
			// Preload rides the bulk-load path, not the WAL: one snapshot
			// makes it durable without logging a record per key.
			if err := srv.Save(); err != nil {
				log.Fatalf("post-preload snapshot: %v", err)
			}
		}
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if srv.Persistent() {
		name = fmt.Sprintf("%s, persisted to %s, fsync %s", name, *dataDir, *fsync)
	}
	role := "master"
	if *replicaOf != "" {
		// ReplicaOf after Listen, so the session can advertise this
		// server's own address to the primary (REPLCONF listening-port).
		if _, err := srv.ReplicaOf(*replicaOf, 0); err != nil {
			log.Fatal(err)
		}
		role = fmt.Sprintf("replica of %s", *replicaOf)
	}
	fmt.Printf("ctredis listening on %s (engine: %s, %d keyspace stripes, exec: %s, role: %s)\n", bound, name, srv.Stripes(), srv.Mode(), role)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	// Close's error is the WAL's final flush+fsync; a silent exit here
	// could hide a non-durable tail.
	if err := srv.Close(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

package main

// The metric catalogue: every name BENCHMARK.json lists, with the layer it
// belongs to and the end-to-end metric × workload it is predicted to move.
// BENCHMARK.json carries only name/unit/better (its schema is fixed); this
// table and README.md carry the rest, and bench_test.go keeps the three in
// step.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Layer  string  // per-layer only
	Moves  string  // per-layer only: end-to-end metric × workload this should move
}

// Workload names, in BENCHMARK.json order.
const (
	wlMultiGet = "lib_multiget_dram"
	wlMixed    = "lib_mixed_sharded"
	wlPipeline = "srv_pipeline_mem"
	wlDurable  = "srv_durable_group"
)

// endToEnd is what a user of the system sees. failed_frac, the seventh
// metric of the issue, is expected to be 0 and so cannot be a share-of-median
// gate; it is reported through the result line's attempted/failed counts.
//
// The time-based bounds are the widest the contract allows. The sandbox the
// benchmark is gated on switches between speed levels 10-30% apart for
// minutes at a time (README "Noise"); within a level the metrics repeat to
// 2-5%, so a tighter bound would gate on the neighbours, not on the code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_bytes_per_key", Unit: "B", Better: "lower", Bound: 0.10},
}

const (
	mvCoreRead  = "ops_per_s, lat_p50_us, cpu_us_per_op on lib_multiget_dram; ~0 on srv_*"
	mvCoreWrite = "ops_per_s, lat_p50_us, cpu_us_per_op on lib_mixed_sharded; ~0 on srv_*"
	mvCoreMem   = "mem_bytes_per_key on every workload"
	mvControl   = "none: if these move, the machine moved"
	mvSharded   = "ops_per_s, lat_p99_us on lib_mixed_sharded only"
	mvResp      = "ops_per_s, cpu_us_per_op on srv_pipeline_mem"
	mvMiniLat   = "ops_per_s, lat_p50_us on srv_pipeline_mem; lat_p99_us on both srv_*"
	mvPersist   = "lat_p50_us, ops_per_s on srv_durable_group"
	mvMetrics   = "cpu_us_per_op on srv_pipeline_mem"
)

// perLayer is printed by the traced run. A layer that does no work on the
// traced workload reports 0.
var perLayer = []metricDef{
	// core: the trie itself. Replays run the workload's own keys through
	// the root facade, single-threaded and in isolation.
	{Name: "core.get_ns_per_key", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreRead},
	{Name: "core.multiget8_ns_per_key", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreRead},
	{Name: "core.multiget64_ns_per_key", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreRead},
	{Name: "core.mlp_speedup_b64", Unit: "x", Better: "higher", Layer: "core", Moves: mvCoreRead + " (= get / multiget64)"},
	{Name: "core.set_insert_ns_per_op", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreWrite},
	{Name: "core.set_update_ns_per_op", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreWrite},
	{Name: "core.delete_ns_per_op", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreWrite},
	{Name: "core.seek_ns_per_op", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreWrite},
	{Name: "core.cursor_next_ns_per_key", Unit: "ns", Better: "lower", Layer: "core", Moves: mvCoreWrite},
	{Name: "core.bulkload_keys_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "setup_s on lib_*"},
	{Name: "core.allocs_per_get", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreRead + " (exact)"},
	{Name: "core.allocs_per_multiget_key", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreRead + " (exact)"},
	{Name: "core.allocs_per_set", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreWrite + " (exact)"},
	{Name: "core.allocs_per_cursor_next", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreWrite + " (exact)"},
	{Name: "core.levels_per_lookup", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreRead + " (exact)"},
	{Name: "core.probe_lines_per_lookup", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreRead + " (exact)"},
	{Name: "core.load_factor", Unit: "frac", Better: "higher", Layer: "core", Moves: mvCoreMem + " (exact)"},
	{Name: "core.nodes_per_key", Unit: "count", Better: "lower", Layer: "core", Moves: mvCoreMem + " (exact)"},
	{Name: "core.bytes_per_key", Unit: "B", Better: "lower", Layer: "core", Moves: mvCoreMem + " (exact)"},
	{Name: "core.table_growth_x", Unit: "x", Better: "lower", Layer: "core", Moves: mvCoreMem + " (exact)"},
	{Name: "core.srv_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "core", Moves: "predicted ~0: core's share of a srv_pipeline_mem command"},
	{Name: "core.get_vs_art_ratio", Unit: "x", Better: "lower", Layer: "core", Moves: "the paper's comparison: core get / ART get on the same keys"},

	// control: untouched baselines on a fixed 200k-key table, sampled at
	// the start and end of every run.
	{Name: "control.art_get_ns_per_key", Unit: "ns", Better: "lower", Layer: "control", Moves: mvControl},
	{Name: "control.btree_get_ns_per_key", Unit: "ns", Better: "lower", Layer: "control", Moves: mvControl},
	{Name: "control.drift_frac", Unit: "frac", Better: "lower", Layer: "control", Moves: mvControl + " (run is NOISY above 0.10)"},

	// sharded: wrapper minus bare engine on the same ops.
	{Name: "sharded.get_overhead_ns_per_op", Unit: "ns", Better: "lower", Layer: "sharded", Moves: mvSharded},
	{Name: "sharded.set_overhead_ns_per_op", Unit: "ns", Better: "lower", Layer: "sharded", Moves: mvSharded},
	{Name: "sharded.multiget64_overhead_ns_per_key", Unit: "ns", Better: "lower", Layer: "sharded", Moves: mvSharded},
	{Name: "sharded.cursor_overhead_ns_per_key", Unit: "ns", Better: "lower", Layer: "sharded", Moves: mvSharded},
	{Name: "sharded.balance_max_mean", Unit: "x", Better: "lower", Layer: "sharded", Moves: mvSharded + " (exact)"},

	// resp: internal/resp over the exact bytes sent and received.
	{Name: "resp.parse_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "resp", Moves: mvResp},
	{Name: "resp.parse_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "resp", Moves: mvResp},
	{Name: "resp.write_ns_per_reply", Unit: "ns", Better: "lower", Layer: "resp", Moves: mvResp},
	{Name: "resp.readreply_ns_per_reply", Unit: "ns", Better: "lower", Layer: "resp", Moves: "none on srv_*: only miniredis.Client and replicas decode replies"},
	{Name: "resp.allocs_per_cmd", Unit: "count", Better: "lower", Layer: "resp", Moves: mvResp + " (exact)"},

	// miniredis: client-side spans of the traced run, an in-process
	// estimate, and the server's own INFO counters read over RESP.
	{Name: "client.encode_write_us_per_pipeline", Unit: "us", Better: "lower", Layer: "miniredis", Moves: "none: the benchmark's own cost"},
	{Name: "client.wait_us_per_pipeline", Unit: "us", Better: "lower", Layer: "miniredis", Moves: mvMiniLat},
	{Name: "client.read_decode_us_per_pipeline", Unit: "us", Better: "lower", Layer: "miniredis", Moves: "none: the benchmark's own cost"},
	{Name: "miniredis.self_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "miniredis", Moves: mvMiniLat + " (estimate)"},
	{Name: "miniredis.usec_per_call.zadd", Unit: "us", Better: "lower", Layer: "miniredis", Moves: mvMiniLat},
	{Name: "miniredis.usec_per_call.zscore", Unit: "us", Better: "lower", Layer: "miniredis", Moves: mvMiniLat},
	{Name: "miniredis.usec_per_call.zmscore", Unit: "us", Better: "lower", Layer: "miniredis", Moves: mvMiniLat},
	{Name: "miniredis.usec_per_call.zrangebylex", Unit: "us", Better: "lower", Layer: "miniredis", Moves: mvMiniLat},
	{Name: "miniredis.p99_us.zadd", Unit: "us", Better: "lower", Layer: "miniredis", Moves: "lat_p99_us on both srv_*"},
	{Name: "miniredis.p99_us.zscore", Unit: "us", Better: "lower", Layer: "miniredis", Moves: "lat_p99_us on srv_pipeline_mem"},
	{Name: "miniredis.slowlog_len", Unit: "count", Better: "lower", Layer: "miniredis", Moves: "lat_p99_us on both srv_*"},
	{Name: "miniredis.error_replies", Unit: "count", Better: "lower", Layer: "miniredis", Moves: "failed ops on both srv_*"},

	// persist: WAL, group commit, rewrite, recovery. Latencies are the
	// sandbox's page cache, not a device's.
	{Name: "persist.append_ns_per_op", Unit: "ns", Better: "lower", Layer: "persist", Moves: mvPersist},
	{Name: "persist.commit_wait_us_p50", Unit: "us", Better: "lower", Layer: "persist", Moves: mvPersist},
	{Name: "persist.commit_wait_us_p99", Unit: "us", Better: "lower", Layer: "persist", Moves: "lat_p99_us on srv_durable_group"},
	{Name: "persist.fsync_us_p50", Unit: "us", Better: "lower", Layer: "persist", Moves: mvPersist},
	{Name: "persist.fsync_us_p99", Unit: "us", Better: "lower", Layer: "persist", Moves: "lat_p99_us on srv_durable_group"},
	{Name: "persist.fsyncs_per_kop", Unit: "count", Better: "lower", Layer: "persist", Moves: mvPersist},
	{Name: "persist.group_batch_p50", Unit: "count", Better: "higher", Layer: "persist", Moves: mvPersist},
	{Name: "persist.wal_bytes_per_op", Unit: "B", Better: "lower", Layer: "persist", Moves: mvPersist},
	{Name: "persist.disk_bytes_per_live_key", Unit: "B", Better: "lower", Layer: "persist", Moves: "none end to end: space cost of the log + snapshot"},
	{Name: "persist.rewrites", Unit: "count", Better: "higher", Layer: "persist", Moves: "lat_p99_us on srv_durable_group (background cycles completed)"},
	{Name: "persist.rewrite_stall_ratio", Unit: "x", Better: "lower", Layer: "persist", Moves: "lat_p99_us on srv_durable_group (worst slice p99 / median slice p99)"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower", Layer: "persist", Moves: "none: restart cost, set-up-like"},
	{Name: "persist.recover_keys_per_s", Unit: "1/s", Better: "higher", Layer: "persist", Moves: "none: restart cost, set-up-like"},
	{Name: "persist.snapshot_keys_per_s", Unit: "1/s", Better: "higher", Layer: "persist", Moves: "rewrite cost on srv_durable_group"},

	// metrics: the histogram every server command records into.
	{Name: "metrics.record_ns_per_sample", Unit: "ns", Better: "lower", Layer: "metrics", Moves: mvMetrics},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", Layer: "metrics", Moves: "none on the hot path: INFO/LATENCY cost"},

	// trace: what the traced run says about itself.
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "trace", Moves: "none: ops_per_s lost to span recording"},
	{Name: "trace.layer_share_of_request", Unit: "frac", Better: "higher", Layer: "trace", Moves: "none: share of the request span inside the layer under test (core, sharded, or the server wait)"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Layer: "trace", Moves: "none: spans written to trace-<workload>.jsonl"},
}

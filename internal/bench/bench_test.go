package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	cuckootrie "repro"
	"repro/internal/dataset"
	"repro/internal/sharded"
)

// tiny returns options small enough for CI smoke runs.
func tiny() Options { return Options{Keys: 5000, Ops: 5000, Threads: 2, Seed: 1} }

func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	cases := []struct {
		name   string
		shards int
		want   []string
	}{
		{"table1", 0, []string{"rand-8", "az", "reddit"}},
		{"fig2", 0, []string{"CuckooTrie", "CuckooTrie-MultiGet64", "STX", "stall ns"}},
		{"fig9", 0, []string{"CuckooTrie", "Wormhole"}},
		{"fig11", 0, []string{"CuckooTrie (resize)", "HOT"}},
		{"fig12", 0, []string{"MlpIndex", "bytes/key"}},
		{"table3", 0, []string{"DRAM", "probed lines/lookup", "upper bound"}},
		{"ablation", 0, []string{"nodes/key", "LOAD throughput", "ctbench multiget"}},
		{"sharded", 4, []string{"CuckooTrie", "x2", "x4", "shard count", "router=hash", "GOMAXPROCS=", "range-x4", "az", "reddit", "balance"}},
		{"load", 4, []string{"CuckooTrie", "hash-x2", "range-x4", "range-x2", "router", "GOMAXPROCS=", "az", "reddit", "balance"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := tiny()
			o.Shards = c.shards
			var buf bytes.Buffer
			if err := figure(t, c.name).Run(&buf, o, false); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("%s output missing %q:\n%s", c.name, w, out)
				}
			}
		})
	}
}

// figure returns the named entry of the figure table.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q in the table", name)
	return Figure{}
}

// TestFig2Shape: fig2 measures every row at both table sizes, names both
// sizes in its banner, and prints stall = large − small. The timings are
// the host's, so only the table's structure is pinned.
func TestFig2Shape(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Keys: 12000, Ops: 4000, Threads: 1, Seed: 1}
	fig2(&buf, o)
	out := buf.String()
	if !strings.Contains(out, "8192-key vs 12000-key") {
		t.Fatalf("banner does not name both table sizes:\n%s", out)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		small, err1 := strconv.ParseFloat(f[1], 64)
		large, err2 := strconv.ParseFloat(f[2], 64)
		stall, err3 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		seen[f[0]] = true
		if small <= 0 || large <= 0 {
			t.Fatalf("row %q: non-positive ns/lookup", line)
		}
		// Each column is rounded to 0.1 ns on its own.
		if math.Abs(stall-(large-small)) > 0.1+1e-9 {
			t.Fatalf("row %q: stall %.1f != large − small %.1f", line, stall, large-small)
		}
	}
	for _, name := range []string{"CuckooTrie", "CuckooTrie-MultiGet64", "ARTOLC", "HOT", "Wormhole", "STX"} {
		if !seen[name] {
			t.Fatalf("fig2 has no %s row:\n%s", name, out)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("fig2 printed %d rows, want 6:\n%s", len(seen), out)
	}
}

// TestTable3LinesPerLookup: table3's lines per lookup is the mean of
// Σ len(level) over core's LookupLevels for its probe keys, on a trie
// loaded the way the YCSB run loads it, and the table has no interconnect
// row.
func TestTable3LinesPerLookup(t *testing.T) {
	o := Options{Keys: 6000, Ops: 3000, Threads: 1, Seed: 3}
	var buf bytes.Buffer
	table3(&buf, o)
	out := buf.String()

	keys := datasetKeys(dataset.Rand8, o.Keys, o.Seed)
	ct, _ := engineByName("CuckooTrie")
	tr := load(ct, keys, len(keys)).(*cuckootrie.Trie)
	probes := probeKeys(keys, o.Ops, o.Seed)
	lines := 0
	for _, k := range probes {
		for _, lv := range tr.LookupLevels(k) {
			lines += len(lv)
		}
	}
	want := fmt.Sprintf("probed lines/lookup: %.4f", float64(lines)/float64(len(probes)))
	if !strings.Contains(out, want) {
		t.Fatalf("table3 output missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "UPI") {
		t.Fatalf("table3 prints an interconnect row:\n%s", out)
	}
}

// TestThreadLadder: the Fig6 ladder must measure at the actual core count
// even when it is not a power of two (the old ladder skipped 6/12/20-core
// machines entirely), without duplicates and in ascending order.
func TestThreadLadder(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1, 2, 4}},
		{2, []int{1, 2, 4}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{12, []int{1, 2, 4, 8, 12}},
		{16, []int{1, 2, 4, 8, 16}},
		{20, []int{1, 2, 4, 8, 16, 20}},
	}
	for _, c := range cases {
		got := threadLadder(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("threadLadder(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("threadLadder(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

// TestShardLadder: the sharded figure's columns are powers of two, respect
// the user's cap (modulo the power-of-two rounding sharded.New itself
// applies), and always label the count actually measured.
func TestShardLadder(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 8}}, // 6 rounds to 8 shards; label what is built
		{8, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		got := shardLadder(c.max)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("shardLadder(%d) = %v, want %v", c.max, got, c.want)
		}
	}
}

// TestShardedEngineRegistry: "-xN" names resolve to sharded variants whose
// batch results match the unsharded engine.
func TestShardedEngineRegistry(t *testing.T) {
	e, ok := engineByName("CuckooTrie-x4")
	if !ok {
		t.Fatal("CuckooTrie-x4 not resolved")
	}
	if e.Name != "CuckooTrie-x4" || !e.Concurrent {
		t.Fatalf("resolved engine = %+v", e)
	}
	if _, ok := engineByName("Nope-x4"); ok {
		t.Fatal("Nope-x4 resolved")
	}
	if _, ok := engineByName("CuckooTrie-xz"); ok {
		t.Fatal("CuckooTrie-xz resolved")
	}
	// Non-power-of-two requests are named for the shard count actually built.
	if e3, ok := engineByName("CuckooTrie-x3"); !ok || e3.Name != "CuckooTrie-x4" {
		t.Fatalf("CuckooTrie-x3 resolved to %q, want CuckooTrie-x4", e3.Name)
	}
	if got := len(ShardedEngines(2)); got != 4 {
		t.Fatalf("ShardedEngines(2) has %d engines, want the 4 concurrent ones", got)
	}
	ix := e.New(1 << 10)
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	vals := []uint64{1, 2, 3}
	if added := ix.MultiSet(keys, vals, nil); added != 3 {
		t.Fatalf("sharded MultiSet added %d", added)
	}
	got := make([]uint64, 3)
	found := make([]bool, 3)
	ix.MultiGet(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("sharded MultiGet[%d] = %d,%v", i, got[i], found[i])
		}
	}
}

// TestRoutedEngineRegistry: router-qualified "-<router>-xN" names resolve
// to sharded variants with the requested routing mode; unknown routers
// fail rather than silently falling back to hash.
func TestRoutedEngineRegistry(t *testing.T) {
	for _, router := range []string{"hash", "range"} {
		name := "CuckooTrie-" + router + "-x4"
		e, ok := engineByName(name)
		if !ok {
			t.Fatalf("%s not resolved", name)
		}
		if e.Name != name {
			t.Fatalf("resolved name = %q, want %q", e.Name, name)
		}
		sx, ok := e.New(64).(*sharded.Index)
		if !ok {
			t.Fatalf("%s did not build a sharded index", name)
		}
		if got := sx.Router().Name(); got != router {
			t.Fatalf("%s built router %q", name, got)
		}
	}
	if _, ok := engineByName("CuckooTrie-mystery-x4"); ok {
		t.Fatal("unknown router resolved")
	}
	// Unqualified "-xN" stays hash-routed (back-compat with recorded runs).
	e, _ := engineByName("CuckooTrie-x4")
	if sx := e.New(64).(*sharded.Index); sx.Router().Name() != "hash" {
		t.Fatalf("CuckooTrie-x4 router = %q, want hash", sx.Router().Name())
	}
}

// TestJSONReports: every figure of the table that builds a Report emits,
// under -json, one parseable report carrying the banner fields
// (GOMAXPROCS, keys, seed) and per-cell rows — the contract that makes
// cross-machine runs diffable. Per-figure checks pin the axes that figure
// sweeps: range-router balance for the shard figures, the
// workload/threads axes for the YCSB grids, the latency axes for fig7.
func TestJSONReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	type check func(t *testing.T, rep Report)
	wantRange := func(t *testing.T, rep Report) {
		t.Helper()
		ranged := 0
		for _, r := range rep.Rows {
			if r.Router == "range" {
				ranged++
				if r.Shards != 2 || r.Balance <= 0 {
					t.Fatalf("range row %+v: want shards=2 and a balance figure", r)
				}
			}
		}
		if ranged == 0 {
			t.Fatal("no range-router rows in the report")
		}
		if rep.MaxShards != 2 {
			t.Fatalf("MaxShards = %d, want 2", rep.MaxShards)
		}
	}
	wantWorkloads := func(wls ...string) check {
		return func(t *testing.T, rep Report) {
			t.Helper()
			seen := map[string]bool{}
			for _, r := range rep.Rows {
				if r.Workload == "" || r.Threads == 0 {
					t.Fatalf("YCSB row %+v missing workload/threads axes", r)
				}
				seen[r.Workload] = true
			}
			for _, wl := range wls {
				if !seen[wl] {
					t.Fatalf("no rows for workload %s (saw %v)", wl, seen)
				}
			}
		}
	}
	// wantLatency: every row must carry the latency axes — a sane p50≤p99
	// ordering and a max at least as large as p99.9. Any figure whose
	// inner loop is instrumented gets this composed onto its check.
	wantLatency := func(inner check) check {
		return func(t *testing.T, rep Report) {
			t.Helper()
			inner(t, rep)
			for _, r := range rep.Rows {
				if r.P99us <= 0 {
					t.Fatalf("row %+v carries no latency measurement", r)
				}
				if r.P50us > r.P99us || r.P99us > r.P999us || r.P999us > r.MaxUs {
					t.Fatalf("row %+v: latency percentiles out of order", r)
				}
			}
		}
	}
	checks := map[string]check{
		"load":    wantRange,
		"sharded": wantRange,
		"fig7":    wantLatency(wantWorkloads("LOAD", "A", "C")),
		"fig8":    wantWorkloads("LOAD", "A", "C"),
		"fig10":   wantWorkloads("E"),
	}
	for _, f := range Figures {
		if f.Report == nil {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			o := tiny()
			o.Keys, o.Ops, o.Shards = 2000, 2000, 2
			var buf bytes.Buffer
			if err := f.Run(&buf, o, true); err != nil {
				t.Fatal(err)
			}
			var rep Report
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				t.Fatalf("output is not one JSON document: %v\n%s", err, buf.String())
			}
			if rep.Figure != f.Name {
				t.Fatalf("figure = %q, want %q", rep.Figure, f.Name)
			}
			if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.Keys != 2000 || rep.Seed != 1 {
				t.Fatalf("banner fields = %+v", rep)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range rep.Rows {
				if r.Mops <= 0 {
					t.Fatalf("row %+v has no throughput", r)
				}
			}
			if c := checks[f.Name]; c != nil {
				c(t, rep)
			}
		})
		delete(checks, f.Name)
	}
	for name := range checks {
		t.Errorf("check for %q, which is not a Report figure of the table", name)
	}
}

// TestHeaderNamesEnvironment: every figure banner must carry GOMAXPROCS so
// multi-core runs are attributable (PR 2's 1-core sharded numbers were
// ambiguous without it).
func TestHeaderNamesEnvironment(t *testing.T) {
	var buf bytes.Buffer
	header(&buf, "t", "p")
	want := fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("header output missing %q:\n%s", want, buf.String())
	}
}

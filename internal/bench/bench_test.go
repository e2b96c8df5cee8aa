package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sharded"
)

// tiny returns options small enough for CI smoke runs.
func tiny() Options { return Options{Keys: 5000, Ops: 5000, Threads: 2, Seed: 1} }

func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	cases := []struct {
		name string
		run  func(o Options, buf *bytes.Buffer)
		want []string
	}{
		{"table1", func(o Options, b *bytes.Buffer) { Table1(b, o) }, []string{"rand-8", "az", "reddit"}},
		{"fig2", func(o Options, b *bytes.Buffer) { Fig2(b, o) }, []string{"CuckooTrie", "STX", "eff.lat"}},
		{"fig9", func(o Options, b *bytes.Buffer) { Fig9(b, o) }, []string{"CuckooTrie", "Wormhole"}},
		{"fig11", func(o Options, b *bytes.Buffer) { Fig11(b, o) }, []string{"CuckooTrie (resize)", "HOT"}},
		{"fig12", func(o Options, b *bytes.Buffer) { Fig12(b, o) }, []string{"MlpIndex", "bytes/key"}},
		{"table3", func(o Options, b *bytes.Buffer) { Table3(b, o) }, []string{"DRAM", "UPI"}},
		{"ablation", func(o Options, b *bytes.Buffer) { Ablation(b, o) }, []string{"nodes/key", "D=5"}},
		{"sharded", func(o Options, b *bytes.Buffer) { o.Shards = 4; FigSharded(b, o) },
			[]string{"CuckooTrie", "x2", "x4", "shard count", "router=hash", "GOMAXPROCS=", "sampled-x4", "az", "reddit", "balance"}},
		{"load", func(o Options, b *bytes.Buffer) { o.Shards = 4; FigLoad(b, o) },
			[]string{"CuckooTrie", "hash-x2", "range-x4", "sampled-x2", "router", "GOMAXPROCS=", "az", "reddit", "balance"}},
		{"persist", func(o Options, b *bytes.Buffer) { o.Keys, o.Ops = 3000, 3000; FigPersist(b, o) },
			[]string{"CuckooTrie-sampled-x4", "load-mem", "snapshot", "recover", "wal-always", "wal-group", "wal-async", "replay",
				"recovered balance", "GOMAXPROCS=", "8 concurrent writers"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			c.run(tiny(), &buf)
			out := buf.String()
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("%s output missing %q:\n%s", c.name, w, out)
				}
			}
		})
	}
}

func TestFig2Shape(t *testing.T) {
	// The reproduction target: the Cuckoo Trie's effective DRAM latency must
	// be well below the serial indexes' (the paper reports ~3x).
	var buf bytes.Buffer
	o := Options{Keys: 30000, Ops: 10000, Threads: 1, Seed: 1}
	Fig2(&buf, o)
	var ctEff, artEff float64
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		switch f[0] {
		case "CuckooTrie":
			ctEff = atofOr(f[5], 0)
		case "ARTOLC":
			artEff = atofOr(f[5], 0)
		}
	}
	if ctEff <= 0 || artEff <= 0 {
		t.Fatalf("could not parse Fig2 output:\n%s", buf.String())
	}
	if ctEff*1.5 > artEff {
		t.Fatalf("effective latency gap too small: CT %.1f vs ART %.1f", ctEff, artEff)
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
	for _, router := range []string{"hash", "range", "sampled"} {
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

// TestJSONReports: every figure with a -json mode emits one parseable
// report carrying the banner fields (GOMAXPROCS, keys, seed) and per-cell
// rows — the contract that makes cross-machine runs diffable. Per-figure
// checks pin the axes that figure sweeps: sampled-router balance for the
// shard figures, the workload/threads axes for the YCSB grids, the mode
// axis for persist.
func TestJSONReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	type check func(t *testing.T, rep Report)
	wantSampled := func(t *testing.T, rep Report) {
		t.Helper()
		sampled := 0
		for _, r := range rep.Rows {
			if r.Router == "sampled" {
				sampled++
				if r.Shards != 2 || r.Balance <= 0 {
					t.Fatalf("sampled row %+v: want shards=2 and a balance figure", r)
				}
			}
		}
		if sampled == 0 {
			t.Fatal("no sampled-router rows in the report")
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
	cases := map[string]struct {
		emit  func(io.Writer, Options) error
		check check
	}{
		"load":    {FigLoadJSON, wantSampled},
		"sharded": {FigShardedJSON, wantSampled},
		"fig7":    {Fig7JSON, wantLatency(wantWorkloads("LOAD", "A", "C"))},
		"fig8":    {Fig8JSON, wantWorkloads("LOAD", "A", "C")},
		"fig10":   {Fig10JSON, wantWorkloads("E")},
		"persist": {FigPersistJSON, func(t *testing.T, rep Report) {
			t.Helper()
			modes := map[string]bool{}
			balance := 0.0
			for _, r := range rep.Rows {
				modes[r.Mode] = true
				if r.Mode == "recover" && r.Engine == "CuckooTrie-sampled-x4" {
					balance = r.Balance
				}
			}
			for _, m := range persistModes {
				if !modes[m] {
					t.Fatalf("no rows for persist mode %s", m)
				}
			}
			if balance <= 0 {
				t.Fatal("sampled recovery row carries no balance (router not trained from the snapshot stream?)")
			}
			if rep.Writers != walGroupWriters {
				t.Fatalf("persist report writers banner = %d, want %d", rep.Writers, walGroupWriters)
			}
			// The per-op write cells are the ones a server would charge a
			// command; they must carry the latency axes. Bulk cells
			// (load/snapshot/recover/replay) measure whole passes and stay bare.
			for _, r := range rep.Rows {
				perOp := r.Mode == "set-mem" || strings.HasPrefix(r.Mode, "wal-")
				if perOp && r.P99us <= 0 {
					t.Fatalf("persist row %+v carries no latency measurement", r)
				}
				if !perOp && r.P99us != 0 {
					t.Fatalf("persist row %+v: bulk cell should not report per-op latency", r)
				}
			}
		}},
		"repl": {FigReplJSON, func(t *testing.T, rep Report) {
			t.Helper()
			seen := map[int]bool{}
			for _, r := range rep.Rows {
				if r.Engine != "CuckooTrie" || r.Mode != "read" {
					t.Fatalf("repl row %+v: want CuckooTrie read rows", r)
				}
				seen[r.Replicas] = true
				if r.Replicas > 0 && r.LagMS <= 0 {
					t.Fatalf("repl row %+v carries no lag measurement", r)
				}
				if r.Replicas == 0 && r.LagMS != 0 {
					t.Fatalf("repl row %+v: lag with no replicas", r)
				}
			}
			for _, n := range replCounts {
				if !seen[n] {
					t.Fatalf("no row for %d replicas (saw %v)", n, seen)
				}
			}
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			o := tiny()
			o.Keys, o.Ops, o.Shards = 2000, 2000, 2
			var buf bytes.Buffer
			if err := c.emit(&buf, o); err != nil {
				t.Fatal(err)
			}
			var rep Report
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				t.Fatalf("output is not one JSON document: %v\n%s", err, buf.String())
			}
			if rep.Figure != name {
				t.Fatalf("figure = %q, want %q", rep.Figure, name)
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
			c.check(t, rep)
		})
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

func atofOr(s string, def float64) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return v
}

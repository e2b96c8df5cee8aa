package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var ctredisBin string

// TestMain builds the ctredis binary the srv_* workloads drive, once.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctredisBin = filepath.Join(dir, "ctredis")
	if out, err := exec.Command("go", "build", "-o", ctredisBin, "repro/cmd/ctredis").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build ctredis: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	runCleanups()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyCtx(t *testing.T, workload string, seed uint64, trace bool) *runCtx {
	return &runCtx{
		workload: workload, seed: seed, seconds: 1, trace: trace, toy: true,
		ctredis: ctredisBin, workDir: t.TempDir(), outDir: t.TempDir(), log: &bytes.Buffer{},
	}
}

func runToy(t *testing.T, c *runCtx) *result {
	t.Helper()
	res, err := findWorkload(c.workload).run(c)
	if err != nil {
		t.Fatalf("%s: %v\n%s", c.workload, err, c.log)
	}
	return res
}

// Every workload at toy size emits every metric BENCHMARK.json names as a
// finite number, fails no op, and writes a trace whose spans all have their
// parent.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := toyCtx(t, w.name, 1, false)
			res := runToy(t, c)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("failed %d of %d ops", res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (measured: %v)", d.Name, v, ok)
				}
			}
			if err := printResult(c, res); err != nil {
				t.Error(err)
			}

			c = toyCtx(t, w.name, 1, true)
			res = runToy(t, c)
			if res.Failed != 0 {
				t.Errorf("traced run failed %d of %d ops", res.Failed, res.Attempted)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name, v := range res.Metrics {
				if !known[name] {
					t.Errorf("traced run emitted %s, which BENCHMARK.json does not list", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", name, v)
				}
			}
			if err := printResult(c, res); err != nil {
				t.Error(err)
			}
			checkTraceFile(t, filepath.Join(c.outDir, "trace-"+w.name+".jsonl"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	ids := map[uint32]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
		} else if !ids[s.Parent] {
			t.Errorf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Errorf("%s: %d spans, %d roots: want both roots and children", path, len(spans), roots)
	}
}

// Equal seeds generate the same op stream; different seeds do not.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a := runToy(t, toyCtx(t, w.name, 7, false)).Digest
		b := runToy(t, toyCtx(t, w.name, 7, false)).Digest
		other := runToy(t, toyCtx(t, w.name, 8, false)).Digest
		if a != b {
			t.Errorf("%s: seed 7 gave digests %x and %x", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", w.name, a)
		}
	}
}

// The kill-restart verifier can see a lost ack: with the WAL deleted between
// the SIGKILL and the restart, acknowledged writes are gone and must be
// counted as failed ops.
func TestDurableDetectsLostAcks(t *testing.T) {
	c := toyCtx(t, wlDurable, 1, false)
	c.beforeRestart = func(dataDir string) {
		logs, _ := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
		if len(logs) == 0 {
			t.Errorf("no WAL segments in %s to delete", dataDir)
		}
		for _, l := range logs {
			os.Remove(l)
		}
	}
	res := runToy(t, c)
	if res.Failed == 0 {
		t.Errorf("deleted the WAL before the restart, yet 0 of %d ops failed", res.Attempted)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v, v * 1.01, v} }
	wide := func(v float64) []float64 { return []float64{v * 0.6, v * 0.8, v, v * 1.2, v * 1.4} }
	ops := endToEnd[1]
	lat := endToEnd[2]
	if ops.Name != "ops_per_s" || lat.Name != "lat_p50_us" {
		t.Fatalf("metric order changed: %s, %s", ops.Name, lat.Name)
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", ops, steady(1000), steady(1005), vWithin},
		{"slower throughput", ops, steady(1000), steady(1000 * (1 - 2*ops.Bound)), vRegressed},
		{"faster throughput", ops, steady(1000), steady(1000 * (1 + 2*ops.Bound)), vImproved},
		{"higher latency", lat, steady(50), steady(50 * (1 + 2*lat.Bound)), vRegressed},
		{"lower latency", lat, steady(50), steady(50 * (1 - 2*lat.Bound)), vImproved},
		{"spread wider than the bound", ops, wide(1000), wide(1010), vUnresolved},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	a := &runSet{Runs: map[string]map[string][]float64{wlMixed: {"ops_per_s": steady(1000)}}, Failed: map[string]int64{wlMixed: 0}}
	b := &runSet{Runs: map[string]map[string][]float64{wlMixed: {"ops_per_s": steady(700)}}, Failed: map[string]int64{wlMixed: 3}}
	var out bytes.Buffer
	if n := compareSets(&out, a, b); n != 2 {
		t.Errorf("compareSets counted %d regressed rows, want 2 (throughput and failed ops):\n%s", n, &out)
	}
	if !strings.Contains(out.String(), vRegressed) {
		t.Errorf("compare output does not mark the regression:\n%s", &out)
	}
}

// quartiles must match Python's statistics.quantiles(values, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles of 10..50 = %v .. %v, want 15 .. 45", q1, q3)
	}
}

// BENCHMARK.json, the catalogue in metrics.go and the workload list stay in
// step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the benchmark %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from metrics.go's %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	// README.md explains every workload and lists every metric.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not list metric %s", d.Name)
		}
	}
}

// Command benchmark is the repository's gating benchmark: four fixed-op
// workloads from MultiGet in DRAM to durable ZADD, six bounded end-to-end
// metrics plus the failed-op count, and per-layer numbers taken from
// outside the program. See README.md; BENCHMARK.json at the repository
// root is the contract it is run under.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh repeat -n 10 -out A.json
//	bash benchmark/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// runCtx is one invocation's configuration.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	toy      bool   // bench_test.go: 2k keys, ~1k requests
	ctredis  string // path of the built ctredis binary (srv_* workloads)
	workDir  string // data dirs and scratch files are created under it
	outDir   string // trace-<workload>.jsonl lands here
	log      io.Writer
	// beforeRestart, when set, runs on the data dir between the SIGKILL
	// and the restart of srv_durable_group; bench_test.go deletes the WAL
	// there to prove the verifier sees a lost ack.
	beforeRestart func(dataDir string)
}

func (c *runCtx) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// scaled is the fixed operation count of one repetition: rate ops per second
// of --seconds, hard-coded per workload and calibrated once on the 2-core
// reference box, split evenly over the repetitions. It is never a timer:
// parent and change execute the identical op stream and end in the
// identical state.
func (c *runCtx) scaled(ratePerSecond, toy int) int {
	if c.toy {
		return toy
	}
	return ratePerSecond * c.seconds / repetitions
}

// keyCount is a workload's loaded key count: full, or 2000 at toy size.
func (c *runCtx) keyCount(full int) int {
	if c.toy {
		return 2000
	}
	return full
}

// reps is how many times the run sets up and measures: the traced run once
// (its numbers have no bound), the toy run twice.
func (c *runCtx) reps() int {
	switch {
	case c.trace:
		return 1
	case c.toy:
		return 2
	}
	return repetitions
}

// result is what one run reports.
type result struct {
	Attempted, Failed int64
	Metrics           map[string]float64
	Digest            uint64
	Samples           int // latency samples behind lat_p50_us / lat_p99_us
	Noisy             bool
}

type workload struct {
	name, why string
	run       func(*runCtx) (*result, error)
}

var workloads = []workload{
	{wlMultiGet, "1M-key trie (125 MB, 30x L2): batch-64 MultiGet is all core probe work, the paper's MLP thesis; no other layer runs", runLibMultiGet},
	{wlMixed, "same engine used differently: 2 goroutines mix zipfian reads with updates, growth, deletes and cursor scans through sharded routing", runLibMixed},
	{wlPipeline, "ctredis with default flags, small hot table, 2 depth-32 pipelining clients: RESP parse, dispatch and reply flush dominate, core is minor", runSrvPipeline},
	{wlDurable, "ctredis -fsync group with background rewrites, then SIGKILL and restart: WAL append, commit park and fsync dominate; acked writes must survive", runSrvDurable},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	code := 1
	defer func() {
		r := recover()
		runCleanups()
		if r != nil {
			panic(r)
		}
		os.Exit(code)
	}()
	cleanupOnSignal()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "repeat":
		err = repeatCmd(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	default:
		err = runCmd(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	code = 0
}

// runCmd is the contract entry point: one workload, one result line.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	c := &runCtx{log: os.Stdout}
	fs.StringVar(&c.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed: equal seeds give equal inputs")
	fs.IntVar(&c.seconds, "seconds", 10, "run length; scales the fixed op count (rate x seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.StringVar(&c.ctredis, "ctredis", "", "path of the ctredis binary (run.sh builds it)")
	fs.StringVar(&c.workDir, "workdir", "", "directory for data dirs and scratch files")
	fs.StringVar(&c.outDir, "outdir", "", "directory for trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c.trace = *trace != 0
	w := findWorkload(c.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(names, ", "))
	}
	if c.seconds < 1 || c.workDir == "" || c.outDir == "" {
		return fmt.Errorf("need -seconds >= 1, -workdir and -outdir (use benchmark/run.sh)")
	}
	printBanner(c)
	res, err := w.run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return printResult(c, res)
}

// printResult prints every metric by name with its unit, then the one-line
// JSON result the driver reads.
func printResult(c *runCtx, res *result) error {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	c.logf("workload_digest %016x", res.Digest)
	if res.Noisy {
		c.logf("NOISY: control lookups drifted by more than 10%% between the start and end of this run")
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !c.trace {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		c.logf("%-40s %16.4f %s", d.Name, v, d.Unit)
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	if !c.trace {
		c.logf("%-40s %16d samples", "latency_samples", res.Samples)
	}
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	c.logf("%-40s %16.6f (%d of %d ops wrong, errored, refused, timed out or lost)", "failed_frac", failedFrac, res.Failed, res.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(c.log, "%s\n", line)
	return err
}

// printBanner records what the numbers were taken on.
func printBanner(c *runCtx) {
	mode := "tracing off: end-to-end metrics"
	if c.trace {
		mode = "traced run: per-layer metrics"
	}
	c.logf("benchmark %s seed=%d seconds=%d (%s)", c.workload, c.seed, c.seconds, mode)
	c.logf("nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg1=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), loadAvg1())
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() string {
	b, _ := os.ReadFile("/proc/loadavg")
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

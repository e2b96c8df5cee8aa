package main

// repeat and compare: the benchmark's own check that its metrics repeat
// within their bounds, and the row-per-metric verdict between two recorded
// sets of runs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSet is what `repeat` records: for each workload and end-to-end metric,
// one value per run, in seed order.
type runSet struct {
	Seconds int                             `json:"seconds"`
	Seeds   []uint64                        `json:"seeds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
	Failed  map[string]int64                `json:"failed"`
}

// repeatCmd runs N full sets — every workload once per seed, seeds
// seed..seed+N-1, each run a fresh process — and prints per metric x
// workload the median, the quartiles and the spread as a share of the bound.
func repeatCmd(args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 10, "sets of runs")
	seed := fs.Uint64("seed", 1, "first seed; run i uses seed+i")
	seconds := fs.Int("seconds", 10, "run length passed to every run")
	only := fs.String("workload", "", "run only this workload")
	out := fs.String("out", "", "write the recorded values to this JSON file, for compare")
	ctredis := fs.String("ctredis", "", "path of the ctredis binary")
	workDir := fs.String("workdir", "", "directory for data dirs and scratch files")
	outDir := fs.String("outdir", "", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &runSet{Seconds: *seconds, Runs: map[string]map[string][]float64{}, Failed: map[string]int64{}}
	for i := 0; i < *n; i++ {
		s := *seed + uint64(i)
		set.Seeds = append(set.Seeds, s)
		for _, w := range workloads {
			if *only != "" && w.name != *only {
				continue
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(*seconds), "-trace", "0",
				"-ctredis", *ctredis, "-workdir", *workDir, "-outdir", *outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			var last []byte
			sc := bufio.NewScanner(bytes.NewReader(stdout))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if len(sc.Bytes()) > 0 {
					last = append(last[:0], sc.Bytes()...)
				}
			}
			var line struct {
				Failed  int64 `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(last, &line); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, s, err)
			}
			if set.Runs[w.name] == nil {
				set.Runs[w.name] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set.Runs[w.name][name] = append(set.Runs[w.name][name], m.Value)
			}
			set.Failed[w.name] += line.Failed
			fmt.Printf("set %d/%d seed %d %-20s failed=%d ops_per_s=%.0f\n", i+1, *n, s, w.name, line.Failed, line.Metrics["ops_per_s"].Value)
		}
	}
	printSpread(os.Stdout, set)
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the method
// the driver applies: exclusive, linear interpolation.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func printSpread(w io.Writer, set *runSet) {
	fmt.Fprintf(w, "\n%-20s %-18s %14s %14s %14s %8s %13s\n", "workload", "metric", "median", "q1", "q3", "spread", "spread/bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := set.Runs[wl.name][d.Name]
			if len(v) == 0 {
				continue
			}
			q1, _, q3 := quartiles(v)
			sp := spreadOf(v)
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %14.4f %7.2f%% %13.2f\n", wl.name, d.Name, median(v), q1, q3, 100*sp, sp/d.Bound)
		}
		if f, ok := set.Failed[wl.name]; ok {
			fmt.Fprintf(w, "%-20s %-18s %14d\n", wl.name, "failed ops", f)
		}
	}
}

// Verdicts of compare.
const (
	vWithin     = "within bound"
	vRegressed  = "REGRESSED"
	vImproved   = "IMPROVED"
	vUnresolved = "UNRESOLVED"
)

// verdict judges one metric: b against a. A move of the median beyond the
// bound is REGRESSED or IMPROVED; a smaller move is only "within bound" when
// the recorded spread is itself inside the bound, and UNRESOLVED otherwise.
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, vUnresolved
	}
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return worse, vRegressed
	case worse < -d.Bound:
		return worse, vImproved
	case max(spreadOf(a), spreadOf(b)) > d.Bound:
		return worse, vUnresolved
	}
	return worse, vWithin
}

// compareCmd prints one row per workload x metric for two files written by
// `repeat -out`, and fails if any row regressed or more ops failed.
func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	var sets [2]runSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	regressed := compareSets(w, &sets[0], &sets[1])
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func compareSets(w io.Writer, a, b *runSet) (regressed int) {
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Runs[wl.name][d.Name], b.Runs[wl.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(d, va, vb)
			if v == vRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, v)
		}
		if fa, fb := a.Failed[wl.name], b.Failed[wl.name]; fb > fa {
			regressed++
			fmt.Fprintf(w, "%-20s %-18s %14d %14d %26s\n", wl.name, "failed ops", fa, fb, vRegressed)
		}
	}
	return regressed
}

// Command ctbench regenerates the paper's tables and figures. Each
// sub-command corresponds to one experiment; `all` runs everything.
//
//	ctbench -keys 200000 -ops 200000 fig7
//	ctbench -keys 1000000 -threads 8 fig8
//	ctbench all
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	keys := flag.Int("keys", 200_000, "dataset size (paper: 71M-200M)")
	ops := flag.Int("ops", 0, "operations per measurement (default: = keys)")
	threads := flag.Int("threads", 0, "threads for multithreaded figures (default: GOMAXPROCS)")
	shards := flag.Int("shards", 0, "max shard count for the sharded figure (default: GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "dataset/workload seed")
	jsonOut := flag.Bool("json", false, "emit the figure as one JSON report (banner fields + rows) instead of text; supported: "+strings.Join(jsonNames(), ", "))
	flag.Usage = func() {
		var names []string
		for _, f := range bench.Figures {
			names = append(names, f.Name)
		}
		fmt.Fprintf(os.Stderr, "usage: ctbench [flags] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: %s all\n", strings.Join(names, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	figures, err := selectFigures(flag.Arg(0), *jsonOut)
	if errors.Is(err, errUnknown) {
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctbench: %v\n", err)
		os.Exit(2)
	}
	o := bench.Options{Keys: *keys, Ops: *ops, Threads: *threads, Shards: *shards, Seed: *seed}
	for _, f := range figures {
		if err := f.Run(os.Stdout, o, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ctbench: %v\n", err)
			os.Exit(1)
		}
	}
}

var errUnknown = errors.New("unknown experiment")

// jsonNames lists the figures -json accepts: those that build a Report.
func jsonNames() []string {
	var names []string
	for _, f := range bench.Figures {
		if f.Report != nil {
			names = append(names, f.Name)
		}
	}
	return names
}

// selectFigures resolves an experiment name to the figures it runs: the
// named one, or every figure for "all". With asJSON only a single figure
// that builds a Report qualifies.
func selectFigures(name string, asJSON bool) ([]bench.Figure, error) {
	figures := bench.Figures
	if name != "all" {
		figures = nil
		for _, f := range bench.Figures {
			if f.Name == name {
				figures = []bench.Figure{f}
			}
		}
		if figures == nil {
			return nil, errUnknown
		}
	}
	if asJSON && (len(figures) != 1 || figures[0].Report == nil) {
		return nil, fmt.Errorf("-json supports only: %s (got %q)", strings.Join(jsonNames(), ", "), name)
	}
	return figures, nil
}

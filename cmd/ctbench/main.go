// Command ctbench regenerates the paper's tables and figures. Each
// sub-command corresponds to one experiment; `all` runs everything.
//
//	ctbench -keys 200000 -ops 200000 fig7
//	ctbench -keys 1000000 -threads 8 fig8
//	ctbench all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	keys := flag.Int("keys", 200_000, "dataset size (paper: 71M-200M)")
	ops := flag.Int("ops", 0, "operations per measurement (default: = keys)")
	threads := flag.Int("threads", 0, "threads for multithreaded figures (default: GOMAXPROCS)")
	shards := flag.Int("shards", 0, "max shard count for the sharded figure (default: GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "dataset/workload seed")
	jsonOut := flag.Bool("json", false, "emit the figure as one JSON report (banner fields + rows) instead of text; supported: sharded, load, persist, repl, fig7, fig8, fig10")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ctbench [flags] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 table3 ablation multiget sharded load persist repl all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	o := bench.Options{Keys: *keys, Ops: *ops, Threads: *threads, Shards: *shards, Seed: *seed}
	if *jsonOut {
		jsonRunners := map[string]func() error{
			"sharded": func() error { return bench.FigShardedJSON(os.Stdout, o) },
			"load":    func() error { return bench.FigLoadJSON(os.Stdout, o) },
			"persist": func() error { return bench.FigPersistJSON(os.Stdout, o) },
			"repl":    func() error { return bench.FigReplJSON(os.Stdout, o) },
			"fig7":    func() error { return bench.Fig7JSON(os.Stdout, o) },
			"fig8":    func() error { return bench.Fig8JSON(os.Stdout, o) },
			"fig10":   func() error { return bench.Fig10JSON(os.Stdout, o) },
		}
		run, ok := jsonRunners[flag.Arg(0)]
		if !ok {
			fmt.Fprintf(os.Stderr, "ctbench: -json supports only: sharded, load, persist, repl, fig7, fig8, fig10 (got %q)\n", flag.Arg(0))
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "ctbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	runners := map[string]func(){
		"table1":   func() { bench.Table1(os.Stdout, o) },
		"fig2":     func() { bench.Fig2(os.Stdout, o) },
		"fig6":     func() { bench.Fig6(os.Stdout, o) },
		"fig7":     func() { bench.Fig7(os.Stdout, o) },
		"fig8":     func() { bench.Fig8(os.Stdout, o) },
		"fig9":     func() { bench.Fig9(os.Stdout, o) },
		"fig10":    func() { bench.Fig10(os.Stdout, o) },
		"fig11":    func() { bench.Fig11(os.Stdout, o) },
		"fig12":    func() { bench.Fig12(os.Stdout, o) },
		"fig13":    func() { bench.Fig13(os.Stdout, o) },
		"table3":   func() { bench.Table3(os.Stdout, o) },
		"ablation": func() { bench.Ablation(os.Stdout, o) },
		"multiget": func() { bench.MultiGetBench(os.Stdout, o) },
		"sharded":  func() { bench.FigSharded(os.Stdout, o) },
		"load":     func() { bench.FigLoad(os.Stdout, o) },
		"persist":  func() { bench.FigPersist(os.Stdout, o) },
		"repl":     func() { bench.FigRepl(os.Stdout, o) },
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, k := range []string{"table1", "fig2", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig12", "fig13", "table3", "ablation", "multiget", "sharded", "load", "persist", "repl"} {
			runners[k]()
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	run()
}

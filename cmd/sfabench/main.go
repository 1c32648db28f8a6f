// Command sfabench regenerates the paper's figures and tables.
//
// Usage:
//
//	sfabench [flags] <experiment>...
//
// Experiments: fig3 fig6 fig7 fig8 fig9 fig10 table2 table3 facts
// ablation ruleset shapecheck all
//
// Examples:
//
//	sfabench fig6                         # thread-scaling sweep for r5
//	sfabench -text-mb 256 fig8            # bigger input
//	sfabench -fig8-n 500 -table3full all  # full paper scale (needs ~8 GiB)
//	sfabench -layout i32 -pool=false fig6 # seed engine configuration
//	sfabench -layout class fig8           # byte-class table ablation
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/harness"
)

func main() {
	var cfg harness.Config
	flag.IntVar(&cfg.TextMB, "text-mb", 64, "benchmark input size in MiB (paper: 1024)")
	flag.IntVar(&cfg.MaxThreads, "threads", 8, "maximum thread count in sweeps (paper: 12)")
	flag.IntVar(&cfg.Fig8N, "fig8-n", 150, "r_n exponent for Fig. 8/9 (paper: 500; needs ~4 GiB)")
	flag.BoolVar(&cfg.Table3Full, "table3full", false, "build the full r500 D-SFA in Table III / Table II")
	flag.IntVar(&cfg.SnortN, "snort-n", 2000, "Fig. 3 corpus size (paper: 20312)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.Repeats, "repeats", 3, "measurement repetitions (best kept)")
	layout := flag.String("layout", "auto", "transition-table layout: auto|u8|u16|i32|class")
	pool := flag.Bool("pool", true, "run matches on the persistent worker pool (false = spawn goroutines per Match, the paper's thread-creation semantics)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sfabench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: fig3 fig6 fig7 fig8 fig9 fig10 table2 table3 facts ablation ruleset shapecheck all\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.Spawn = !*pool
	var err error
	if cfg.Layout, err = engine.ParseLayout(*layout); err != nil {
		fmt.Fprintf(os.Stderr, "sfabench: %v\n", err)
		os.Exit(2)
	}
	cfg.Out = os.Stdout

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	experiments := map[string]func() error{
		"fig3":       cfg.Fig3,
		"fig6":       cfg.Fig6,
		"fig7":       cfg.Fig7,
		"fig8":       cfg.Fig8,
		"fig9":       cfg.Fig9,
		"fig10":      cfg.Fig10,
		"table2":     cfg.Table2,
		"table3":     cfg.Table3,
		"facts":      cfg.Facts,
		"ablation":   cfg.Ablations,
		"shapecheck": cfg.ShapeCheck,
		"ruleset":    cfg.Ruleset,
	}
	order := []string{"fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "table3", "facts", "ablation", "ruleset", "shapecheck"}

	var queue []string
	for _, a := range args {
		if a == "all" {
			queue = append(queue, order...)
			continue
		}
		if _, ok := experiments[a]; !ok {
			fmt.Fprintf(os.Stderr, "sfabench: unknown experiment %q\n", a)
			os.Exit(2)
		}
		queue = append(queue, a)
	}
	for _, name := range queue {
		if err := experiments[name](); err != nil {
			fmt.Fprintf(os.Stderr, "sfabench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

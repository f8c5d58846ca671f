// Command homeostasis-bench regenerates the tables and figures of the
// paper's evaluation (Section 6 and Appendix F) on the simulated cluster.
//
// Usage:
//
//	homeostasis-bench -list
//	homeostasis-bench -experiment fig11
//	homeostasis-bench -experiment all -scale quick -parallel 8 -progress
//
// Scales: "full" approximates the paper's setup at simulation-friendly
// size; "quick" is a reduced regression scale; "bench" is the smallest
// smoke-test scale. Sweep cells (independent simulated clusters) are
// fanned out across -parallel worker goroutines (default: all cores);
// output is byte-identical for any -parallel value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig10..fig29, table1, ablation, drift) or 'all'")
		scaleName  = flag.String("scale", "full", "experiment scale: full, quick, or bench")
		parallel   = flag.Int("parallel", 0, "max sweep cells simulated concurrently (0 = all cores)")
		progress   = flag.Bool("progress", false, "report per-cell progress on stderr")
		verbose    = flag.Bool("v", false, "print per-sweep totals (commits, drops, store counters) after each report")
		list       = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, name := range experiments.Names() {
			fmt.Println("  " + name)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "usage: homeostasis-bench -experiment <id|all> [-scale full|quick|bench] [-parallel N]")
		fmt.Fprintln(os.Stderr, "       homeostasis-bench -list")
		os.Exit(2)
	}

	var sc experiments.Scale
	switch strings.ToLower(*scaleName) {
	case "full":
		sc = experiments.Full
	case "quick":
		sc = experiments.Quick
	case "bench":
		sc = experiments.Bench
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want full, quick, or bench)\n", *scaleName)
		os.Exit(2)
	}
	sc.Parallel = *parallel

	runOne := func(name string) {
		fn, ok := experiments.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
			os.Exit(2)
		}
		if *progress {
			sc.OnProgress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells", name, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		t0 := time.Now()
		r, err := fn(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", name, err)
			os.Exit(1)
		}
		fmt.Println(r)
		if *verbose && r.Cells > 0 {
			fmt.Printf("(%s totals: %s)\n", name, r.Totals.String())
		}
		if r.Cells > 0 {
			fmt.Printf("(%s: %d cells on %d workers in %.1fs)\n\n",
				name, r.Cells, r.Workers, time.Since(t0).Seconds())
		} else {
			fmt.Printf("(%s regenerated in %.1fs)\n\n", name, time.Since(t0).Seconds())
		}
	}

	if *experiment == "all" {
		start := time.Now()
		for _, name := range experiments.Names() {
			runOne(name)
		}
		fmt.Printf("(all experiments regenerated in %.1fs; %d simulation cells total)\n",
			time.Since(start).Seconds(), experiments.TotalCells())
		return
	}
	runOne(*experiment)
}

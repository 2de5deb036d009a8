// Command tables regenerates every table of the paper's evaluation section
// (Tables 1-7) on the simulated iPSC/860-like machine and prints them, or
// writes them as markdown for EXPERIMENTS.md.
//
// Usage:
//
//	tables [-quick] [-table N] [-datamotion] [-inspector] [-cluster] [-adapt] [-overlap] [-markdown | -json]
//
// Without -table, all tables run. -quick uses the shrunken scale (seconds
// instead of minutes of wall time). -markdown emits GitHub-flavoured
// markdown instead of aligned text; -json emits newline-delimited JSON,
// one record per table row, for downstream tooling. -datamotion runs only
// the wall-clock data-motion microbenchmark table (ns/op and allocs/op of
// the executor collectives, not virtual time); -inspector likewise runs
// only the wall-clock adaptive-inspector benchmark table; -cluster runs
// only the chaosd cluster-service throughput table (jobs/min and elastic
// restore counts through an in-process coordinator and worker pool);
// -adapt runs only the BENCH_adapt table comparing static, periodic and
// policy-driven remapping across three DSMC skew scenarios; -overlap runs
// only the BENCH_overlap table comparing loopir's blocking executor against
// its split-phase (communication/computation overlap) executor on an
// irregular-reduction kernel, in measured wall-clock time over a wire with
// real latency.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use the shrunken quick scale")
	table := flag.Int("table", 0, "run only table N (1-7); 0 = all")
	markdown := flag.Bool("markdown", false, "emit markdown output")
	jsonOut := flag.Bool("json", false, "emit newline-delimited JSON, one record per table row")
	datamotion := flag.Bool("datamotion", false, "run only the wall-clock data-motion benchmark table")
	inspector := flag.Bool("inspector", false, "run only the wall-clock adaptive-inspector benchmark table")
	clusterT := flag.Bool("cluster", false, "run only the chaosd cluster-service throughput table")
	loopir := flag.Bool("loopir", false, "run only the fortd -O0 vs -O schedule-reuse table")
	wallclock := flag.Bool("wallclock", false, "run only the measured wall-clock parallel-speedup table (scale-sensitive)")
	adaptT := flag.Bool("adapt", false, "run only the BENCH_adapt adaptive-remapping comparison table")
	overlapT := flag.Bool("overlap", false, "run only the BENCH_overlap blocking-vs-split-phase measured wall table")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tables [-quick] [-table N] [-datamotion] [-inspector] [-cluster] [-loopir] [-wallclock] [-adapt] [-overlap] [-markdown | -json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tables: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *markdown && *jsonOut {
		fmt.Fprintln(os.Stderr, "tables: -markdown and -json are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}

	sc := bench.Full()
	if *quick {
		sc = bench.Quick()
	}
	if *datamotion || *inspector || *clusterT || *loopir || *wallclock || *adaptT || *overlapT {
		picked := 0
		for _, b := range []bool{*datamotion, *inspector, *clusterT, *loopir, *wallclock, *adaptT, *overlapT} {
			if b {
				picked++
			}
		}
		if *table != 0 || picked > 1 {
			fmt.Fprintln(os.Stderr, "tables: -datamotion, -inspector, -cluster, -loopir, -wallclock, -adapt, -overlap and -table are mutually exclusive")
			flag.Usage()
			os.Exit(2)
		}
		t := bench.DataMotion()
		if *wallclock {
			t = bench.Wallclock(sc)
		}
		if *inspector {
			t = bench.Inspector()
		}
		if *clusterT {
			t = bench.Cluster()
		}
		if *loopir {
			t = bench.Loopir()
		}
		if *adaptT {
			t = bench.Adapt(sc)
		}
		if *overlapT {
			t = bench.Overlap(sc)
		}
		switch {
		case *jsonOut:
			if err := t.WriteJSON(os.Stdout, sc.Name); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(1)
			}
		case *markdown:
			fmt.Print(t.Markdown())
		default:
			fmt.Print(t.Render())
		}
		return
	}
	funcs := map[int]func(bench.Scale) *bench.Table{
		1: bench.Table1, 2: bench.Table2, 3: bench.Table3, 4: bench.Table4,
		5: bench.Table5, 6: bench.Table6, 7: bench.Table7,
	}
	var ids []int
	if *table != 0 {
		if _, ok := funcs[*table]; !ok {
			fmt.Fprintf(os.Stderr, "tables: no table %d (valid: 1-7)\n", *table)
			flag.Usage()
			os.Exit(2)
		}
		ids = []int{*table}
	} else {
		ids = []int{1, 2, 3, 4, 5, 6, 7}
	}

	if !*jsonOut {
		fmt.Printf("# CHAOS reproduction tables — scale=%s machine=%s\n\n", sc.Name, sc.Machine().Name)
	}
	for _, id := range ids {
		start := time.Now()
		t := funcs[id](sc)
		switch {
		case *jsonOut:
			if err := t.WriteJSON(os.Stdout, sc.Name); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(1)
			}
		case *markdown:
			fmt.Print(t.Markdown())
			fmt.Printf("  (regenerated in %.1fs wall)\n\n", time.Since(start).Seconds())
		default:
			fmt.Print(t.Render())
			fmt.Printf("  (regenerated in %.1fs wall)\n\n", time.Since(start).Seconds())
		}
	}
}

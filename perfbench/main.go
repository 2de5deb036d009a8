// Command perfbench is the repository's benchmark: time to solution and
// 1→2-rank speedup of three CHAOS workloads on the in-memory transport under
// comm.RunMeasured, each result checked against its sequential reference,
// with a separate traced run for the per-layer numbers. See README.md.
//
//	go run . --workload charmm-md --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The lines before it carry the host metadata and every metric in readable
// form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to test size.
	tiny bool
	// minRounds is the least number of measurement rounds, however short
	// the time budget.
	minRounds int
	// traceDir is where a traced invocation writes its spans.
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: charmm-md, dsmc-drift or kernel-remap")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.minRounds = 3
	o.traceDir = filepath.Join(".bench_build", "perfbench")
	if err := benchmark(os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is one JSON output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs one invocation and writes its report to out; progress and
// failure detail go to log.
func benchmark(out, log io.Writer, o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	ranks := min(2, runtime.NumCPU())
	fmt.Fprintf(out, "host nproc=%d GOMAXPROCS=%d go=%s os=%s arch=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%g trace=%t ranks=%d baseline_ranks=1 gomaxprocs_per_run=ranks transport=mem mode=RunMeasured\n",
		w.name, o.seed, o.seconds, o.trace, ranks)

	b := &bench{inst: w.make(o.seed, o.tiny), ranks: ranks, log: log, first: map[runKind]*runResult{}}
	var names []string
	var ms map[string]metric
	if o.trace {
		names, ms, err = b.perLayer(o)
	} else {
		names, ms = b.endToEnd(o)
	}
	if err != nil {
		return err
	}
	if !o.trace {
		fmt.Fprintf(out, "metric failed_frac = %d/%d = %.4g ratio\n", b.failed, b.attempted, b.failedFrac())
	}
	for _, d := range b.detail {
		fmt.Fprintln(out, d)
	}
	for _, n := range names {
		fmt.Fprintf(out, "metric %s = %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, e := range b.errs {
		fmt.Fprintln(out, "failure", e)
	}
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// runKind is one configuration of a measured run.
type runKind struct {
	ranks     int
	setupOnly bool
}

// runResult is one measured run that passed its checks.
type runResult struct {
	rep      *comm.Report
	out      rankOut
	alloc    uint64 // bytes allocated by the whole process during the run
	mallocs  uint64
	gcCycles uint32
	gcPause  float64 // seconds
	steal    int64   // host CPU ticks stolen by the hypervisor during the run
}

// bench accumulates the runs of one invocation.
type bench struct {
	inst  *instance
	ranks int
	log   io.Writer

	attempted, failed int
	errs              []string
	detail            []string // readable sample summaries
	// first is the first passing run of each kind: every later run of the
	// same kind must repeat its counts and modeled clocks exactly.
	first map[runKind]*runResult
}

// failedFrac is failed_frac: failed runs over runs attempted.
func (b *bench) failedFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// run executes one measured run and checks it. It returns nil when the run
// panicked, missed its reference, or did not repeat the exact counts of the
// first run of its kind; each of those counts as a failed run.
func (b *bench) run(k runKind, t *tracer) *runResult {
	b.attempted++
	r, err := b.measure(k, t)
	if err == nil {
		err = b.check(k, r, t)
	}
	if err != nil {
		b.failed++
		msg := fmt.Sprintf("ranks=%d setup_only=%t traced=%t: %v", k.ranks, k.setupOnly, t != nil, err)
		b.errs = append(b.errs, msg)
		fmt.Fprintln(b.log, "perfbench: run failed:", msg)
		return nil
	}
	return r
}

// measure executes the workload once under comm.RunMeasuredTransport. A
// panic on any rank is returned as an error.
func (b *bench) measure(k runKind, t *tracer) (res *runResult, err error) {
	defer func() {
		if e := recover(); e != nil {
			res, err = nil, fmt.Errorf("panic: %v", e)
		}
	}()
	var tr comm.Transport = comm.NewMemTransport(k.ranks)
	if t != nil {
		tr = &tracedTransport{inner: tr, t: t}
	}
	outs := make([]rankOut, k.ranks)
	// A run gets as many Ps as it has ranks, so the 1-rank baseline is
	// single-threaded: with spare Ps the collector would run on idle cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), k.ranks)))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stealTicks()
	rep := comm.RunMeasuredTransport(k.ranks, costmodel.IPSC860(), tr, comm.MeasureOpts{}, func(p *comm.Proc) {
		id := t.begin(p.Rank(), "rank")
		defer t.end(id)
		outs[p.Rank()] = b.inst.body(p, t, k.setupOnly)
	})
	steal := stealTicks() - steal0
	runtime.ReadMemStats(&m1)
	return &runResult{
		rep: rep, out: outs[0], steal: steal,
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}, nil
}

// checkTolerance is the relative checksum tolerance against the sequential
// reference; the charmm and dsmc package tests use the same.
const checkTolerance = 1e-9

func (b *bench) check(k runKind, r *runResult, t *tracer) error {
	want := b.inst.ref
	if k.setupOnly {
		want = b.inst.refSetup
	}
	if e := relErr(r.out.checksum, want); !(e <= checkTolerance) {
		return fmt.Errorf("checksum %.17g, reference %.17g (relative error %.3g > %g)", r.out.checksum, want, e, checkTolerance)
	}
	if t != nil {
		walls := make([]float64, len(r.rep.Measured))
		for i, m := range r.rep.Measured {
			walls[i] = m.Wall
			if b.inst.phasePrefix != "" {
				t.addTotals(i, b.inst.phasePrefix, m.Phases)
			}
		}
		if rank, got, wall, ok := t.checkSums(walls); !ok {
			return fmt.Errorf("rank %d: spans sum to %.6gs, more than its measured wall %.6gs", rank, got, wall)
		}
	}
	f := b.first[k]
	if f == nil {
		b.first[k] = r
		return nil
	}
	type exact struct {
		name      string
		got, want any
	}
	for _, e := range []exact{
		{"modeled_vsec", r.rep.MaxClock(), f.rep.MaxClock()},
		{"comm.msgs", r.rep.TotalMsgsSent(), f.rep.TotalMsgsSent()},
		{"comm.bytes", r.rep.TotalBytesSent(), f.rep.TotalBytesSent()},
		{"dsmc.remaps", r.out.remaps, f.out.remaps},
		{"loopir.inspections", r.out.inspections, f.out.inspections},
	} {
		if e.got != e.want {
			return fmt.Errorf("%s = %v, first run of this kind had %v", e.name, e.got, e.want)
		}
	}
	return nil
}

// rounds runs the kinds in rotating order, round after round, until the
// time budget is spent and at least o.minRounds rounds are done. visit sees
// every passing run.
func (b *bench) rounds(o options, kinds []runKind, traced []bool, visit func(i int, r *runResult, t *tracer)) {
	clock := comm.NewWallClock()
	run := 0
	for round := 0; round < o.minRounds || clock.Now() < o.seconds; round++ {
		for j := range kinds {
			i := (j + round) % len(kinds)
			var t *tracer
			if traced[i] {
				t = newTracer(run, kinds[i].ranks)
			}
			run++
			r := b.run(kinds[i], t)
			if r == nil {
				continue
			}
			visit(i, r, t)
			fmt.Fprintf(b.log, "perfbench: round %d kind %+v traced=%t wall %.4fs steal %d ticks\n", round, kinds[i], t != nil, r.rep.MaxMeasuredWall(), r.steal)
		}
	}
}

// endToEnd measures the end-to-end metrics: setup-only and full runs at
// b.ranks and full runs at one rank, interleaved.
func (b *bench) endToEnd(o options) ([]string, map[string]metric) {
	kinds := []runKind{{b.ranks, true}, {b.ranks, true}, {b.ranks, true}, {b.ranks, false}, {1, false}}
	// One full run first, outside the samples: the heap grows to its
	// working size and lazy runtime set-up finishes.
	b.run(kinds[3], nil)
	runs := map[runKind][]*runResult{}
	b.rounds(o, kinds, make([]bool, len(kinds)), func(i int, r *runResult, _ *tracer) {
		runs[kinds[i]] = append(runs[kinds[i]], r)
	})
	setup, solve, solve1 := runs[kinds[0]], runs[kinds[3]], runs[kinds[4]]
	ms := map[string]metric{
		"solve_s":       {b.timing("solve_s", solve, wallOf), "s"},
		"solve_1rank_s": {b.timing("solve_1rank_s", solve1, wallOf), "s"},
		"setup_s":       {b.timing("setup_s", setup, wallOf), "s"},
		"alloc_mb":      {median(collect(solve, func(r *runResult) float64 { return float64(r.alloc) / 1e6 })), "MB"},
		"modeled_vsec":  {0, "vsec"},
	}
	if len(solve) > 0 {
		ms["modeled_vsec"] = metric{solve[0].rep.MaxClock(), "vsec"}
	}
	sp := 0.0
	if ms["solve_s"].Value > 0 {
		sp = ms["solve_1rank_s"].Value / ms["solve_s"].Value
	}
	ms["speedup"] = metric{sp, "x"}
	return []string{"solve_s", "solve_1rank_s", "speedup", "setup_s", "alloc_mb", "modeled_vsec"}, ms
}

// timing is the median of f over the quiet runs of rs; it records the
// sample counts and spread for the readable output.
func (b *bench) timing(name string, rs []*runResult, f func(*runResult) float64) float64 {
	xs := collect(rs, f)
	quiet := collect(quietRuns(rs), f)
	b.detail = append(b.detail, fmt.Sprintf("sample %s all: n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g; quiet: n=%d q1=%.6g median=%.6g q3=%.6g",
		name, len(xs), quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1),
		len(quiet), quantile(quiet, 0.25), median(quiet), quantile(quiet, 0.75)))
	return median(quiet)
}

func collect(rs []*runResult, f func(*runResult) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// phaseMetrics maps per-layer metrics to the measured phase keys the
// applications already record; each value is the sum of its keys on the
// rank with the longest measured wall.
var phaseMetrics = []struct {
	name   string
	prefix string
	keys   []string
}{
	{"charmm.nblist_s", "charmm.", []string{"nbupdate"}},
	{"charmm.executor_s", "charmm.", []string{"executor"}},
	{"charmm.schedregen_s", "charmm.", []string{"schedregen"}},
	{"charmm.setup_nblist_s", "charmm.", []string{"nblist_init", "nblist"}},
	{"charmm.partition_s", "charmm.", []string{"partition"}},
	{"charmm.remap_s", "charmm.", []string{"remap"}},
	{"charmm.schedgen_s", "charmm.", []string{"schedgen"}},
	{"dsmc.move_s", "dsmc.", []string{"move"}},
	{"dsmc.collide_s", "dsmc.", []string{"collide"}},
	{"dsmc.partition_s", "dsmc.", []string{"partition"}},
	{"dsmc.remap_s", "dsmc.", []string{"remap"}},
}

// callMetrics are the per-call spans reported as p50/p90 with their count,
// in the unit given (scale converts from seconds).
var callMetrics = []struct {
	name  string
	span  string
	unit  string
	scale float64
}{
	{"comm.recv_wait_us", "comm.recv", "us", 1e6},
	{"loopir.execute_ms", "loopir.execute", "ms", 1e3},
	{"loopir.inspect_ms", "loopir.inspect", "ms", 1e3},
	{"partition.rcb_ms", "partition.rcb", "ms", 1e3},
	{"partition.rib_ms", "partition.rib", "ms", 1e3},
	{"remap.redistribute_ms", "remap.redistribute", "ms", 1e3},
}

// perLayer alternates traced and untraced full runs at b.ranks. Span
// metrics and the program's own per-rank accounting come from the traced
// runs; gc metrics come from the untraced ones, which the tracer's own
// allocations do not disturb.
func (b *bench) perLayer(o options) ([]string, map[string]metric, error) {
	kinds := []runKind{{b.ranks, false}, {b.ranks, false}}
	var tracers []*tracer
	var traced, plain []*runResult
	b.rounds(o, kinds, []bool{true, false}, func(i int, r *runResult, t *tracer) {
		if i == 0 {
			tracers = append(tracers, t)
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	})
	if len(tracers) > 0 {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, tracers); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintln(b.log, "perfbench: spans written to", path)
	}

	ms := map[string]metric{}
	var names []string
	add := func(name, unit string, v float64) {
		names = append(names, name)
		ms[name] = metric{v, unit}
	}
	var first *runResult
	if len(traced) > 0 {
		first = traced[0]
	} else {
		first = &runResult{rep: &comm.Report{}}
	}

	add("comm.msgs", "count", float64(first.rep.TotalMsgsSent()))
	add("comm.bytes", "bytes", float64(first.rep.TotalBytesSent()))
	add("comm.wait_s", "s", quietMedian(traced, func(r *runResult) float64 { return r.rep.MeanMeasuredCommWall() }))
	for _, pm := range phaseMetrics {
		v := 0.0
		if pm.prefix == b.inst.phasePrefix {
			v = quietMedian(traced, func(r *runResult) float64 {
				ph := longestRank(r.rep).Phases
				s := 0.0
				for _, k := range pm.keys {
					s += ph[k]
				}
				return s
			})
		}
		add(pm.name, "s", v)
	}
	add("dsmc.remaps", "count", float64(first.out.remaps))
	add("loopir.inspections", "count", float64(first.out.inspections))
	for _, cm := range callMetrics {
		var xs []float64
		for _, t := range tracers {
			for _, d := range t.durations(cm.span) {
				xs = append(xs, d*cm.scale)
			}
		}
		add(cm.name+".p50", cm.unit, quantile(xs, 0.5))
		add(cm.name+".p90", cm.unit, quantile(xs, 0.9))
		add(cm.name+".n", "count", float64(len(xs)))
	}
	var mallocs uint64
	calls := 0
	for _, t := range tracers {
		mallocs += t.execMallocs
		calls += t.execCalls
	}
	perCall := 0.0
	if calls > 0 {
		// Rank 0 reads process-wide counters while every rank runs its own
		// Execute of the same collective call.
		perCall = float64(mallocs) / float64(calls*b.ranks)
	}
	add("loopir.execute_allocs", "count", perCall)
	add("gc.cycles", "count", quietMedian(plain, func(r *runResult) float64 { return float64(r.gcCycles) }))
	add("gc.pause_s", "s", quietMedian(plain, func(r *runResult) float64 { return r.gcPause }))
	add("gc.mallocs", "count", quietMedian(plain, func(r *runResult) float64 { return float64(r.mallocs) }))
	overhead := 0.0
	if tw, pw := quietMedian(traced, wallOf), quietMedian(plain, wallOf); pw > 0 && len(traced) > 0 {
		overhead = tw/pw - 1
	}
	add("bench.trace_overhead_frac", "ratio", overhead)
	add("bench.failed_frac", "ratio", b.failedFrac())
	return names, ms, nil
}

func wallOf(r *runResult) float64 { return r.rep.MaxMeasuredWall() }

// longestRank is the rank whose measured wall set the run's time.
func longestRank(rep *comm.Report) comm.Measured {
	best := comm.Measured{}
	for _, m := range rep.Measured {
		if m.Wall >= best.Wall {
			best = m
		}
	}
	return best
}

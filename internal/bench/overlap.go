package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/loopir"
	"repro/internal/partition"
)

// OverlapWireLatency is the real-time delivery delay BENCH_overlap imposes
// on every frame (comm.DelayTransport). The in-memory transport delivers
// instantly, so a blocking receive only ever waits for peer skew and there
// is nothing for split-phase motion to hide; a fixed wire latency restores
// the machine property the paper's overlap optimization targets. Both modes
// pay the same latency — the table isolates how much of it each executor
// hides behind interior computation.
const OverlapWireLatency = 4 * time.Millisecond

// OverlapResult is one measured blocking-vs-split-phase comparison cell.
type OverlapResult struct {
	BlockWall, OverWall float64 // max measured wall over ranks, median of reps
	BlockComm, OverComm float64 // mean measured comm wait over ranks, median of reps
	BlockVsec, OverVsec float64 // modeled virtual makespan (must match exactly)
}

// HiddenFrac is the fraction of the blocking run's measured communication
// wait that the overlap run hid behind interior computation.
func (r OverlapResult) HiddenFrac() float64 {
	if r.BlockComm <= 0 {
		return 0
	}
	h := (r.BlockComm - r.OverComm) / r.BlockComm
	if h < 0 {
		return 0
	}
	return h
}

// Irregular-kernel scenario sizing: rows have overlapKernelDeg near
// neighbours (interior under a block decomposition, except at slab edges)
// plus one far partner (a ghost on every rank count > 1), and the loop body
// does enough real arithmetic per pair that one execution's interior window
// comfortably covers OverlapWireLatency.
const (
	overlapKernelN     = 12000
	overlapKernelDeg   = 2
	overlapKernelExecs = 24
	overlapKernelFlops = 260
)

// overlapKernelBody is the REDUCE(SUM) body of the kernel scenario: real
// arithmetic per pair (not just modeled flops), so hiding the wire latency
// behind it is measurable on the host clock.
func overlapKernelBody(xi, xj, fi, fj []float64) {
	for c := range xi {
		a, b := xi[c], xj[c]
		s, d := a+b, a-b
		for t := 0; t < 64; t++ {
			s = s*0.75 + d*0.25
			d = d*0.75 - s*0.125
		}
		fi[c] += d
		fj[c] += s
	}
}

// overlapKernelCSR builds this rank's slab of the kernel indirection array:
// ring neighbours within overlapKernelDeg/2 hops plus one far partner.
func overlapKernelCSR(p *comm.Proc, n int) (ptr, vals []int32) {
	lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
	ptr = make([]int32, hi-lo+1)
	for g := lo; g < hi; g++ {
		for h := 1; h <= overlapKernelDeg/2; h++ {
			vals = append(vals, int32((g+h)%n), int32((g-h+n)%n))
		}
		vals = append(vals, int32((g+n/2+g%97)%n))
		ptr[g-lo+1] = int32(len(vals))
	}
	return ptr, vals
}

// overlapKernelRun executes the irregular-reduction kernel (the loopir
// split-phase executor) overlapKernelExecs times on one reused schedule.
func overlapKernelRun(p *comm.Proc, overlap bool) {
	prog := loopir.NewProgram(p)
	dec := prog.Decomposition(overlapKernelN)
	x := dec.AlignReal(1)
	f := dec.AlignReal(1)
	x.SetByGlobal(func(g int32, c []float64) { c[0] = float64(g%911) * 1e-3 })
	ind := dec.AlignIndCSR()
	ind.SetCSR(overlapKernelCSR(p, overlapKernelN))
	loop := prog.NewSumLoop(ind, x, f, overlapKernelFlops, overlapKernelBody)
	loop.Overlap(overlap)
	for e := 0; e < overlapKernelExecs; e++ {
		loop.Execute()
	}
}

// overlapScenarios are the programs BENCH_overlap compares: the irregular
// reduction kernel, run by the loopir split-phase executor on a reused
// schedule.
var overlapScenarios = []struct {
	name string
	body func(overlap bool) func(p *comm.Proc)
}{
	{"kernel", func(overlap bool) func(p *comm.Proc) {
		return func(p *comm.Proc) { overlapKernelRun(p, overlap) }
	}},
}

// median returns the median of xs (xs is reordered in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// RunOverlapScenario measures one scenario at one rank count, blocking and
// split-phase. Reps are interleaved (one blocking run, one overlap run, per
// rep) and each mode reports its median, so slow host windows hit both modes
// alike instead of biasing whichever mode happened to run during them. It
// panics if the modeled virtual makespans diverge — overlap must never change
// virtual time. Exported for the win-assertion regression test.
func RunOverlapScenario(sc Scale, body func(overlap bool) func(p *comm.Proc), n, reps int) OverlapResult {
	if sc.Transport == nil {
		sc.Transport = func(n int) (comm.Transport, error) {
			return comm.NewDelayTransport(comm.NewMemTransport(n), OverlapWireLatency), nil
		}
	}
	var res OverlapResult
	var bWall, bComm, oWall, oComm []float64
	for r := 0; r < maxi(reps, 1); r++ {
		repB := sc.runMeasured(n, body(false))
		repO := sc.runMeasured(n, body(true))
		bWall = append(bWall, repB.MaxMeasuredWall())
		bComm = append(bComm, repB.MeanMeasuredCommWall())
		oWall = append(oWall, repO.MaxMeasuredWall())
		oComm = append(oComm, repO.MeanMeasuredCommWall())
		res.BlockVsec, res.OverVsec = repB.MaxClock(), repO.MaxClock()
		if res.BlockVsec != res.OverVsec {
			panic(fmt.Sprintf("bench: overlap changed the modeled makespan: %v != %v (n=%d)",
				res.OverVsec, res.BlockVsec, n))
		}
	}
	res.BlockWall, res.BlockComm = median(bWall), median(bComm)
	res.OverWall, res.OverComm = median(oWall), median(oComm)
	return res
}

// Overlap generates BENCH_overlap: measured wall-clock time of the blocking
// executor against the split-phase overlap executor, per scenario and rank
// count, with the fraction of communication wait hidden behind interior
// computation. The Modeled column is shared by construction —
// RunOverlapScenario panics if the two modes' virtual makespans differ by
// a single bit.
func Overlap(sc Scale) *Table {
	t := &Table{
		ID:    "BENCH_overlap",
		Title: "Split-phase collectives: measured wall of the blocking vs overlapped loopir executor (real sec)",
		Columns: []string{
			"Scenario", "Procs", "Blocking (s)", "Overlap (s)",
			"Speedup", "Comm blk (s)", "Comm ovl (s)", "Hidden %", "Modeled (vsec)",
		},
		Notes: []string{
			fmt.Sprintf("median of %d interleaved reps per cell; host GOMAXPROCS=%d; Hidden %% is the share of blocking comm wait removed by overlap",
				maxi(sc.WallReps, 1), runtime.GOMAXPROCS(0)),
			fmt.Sprintf("wire latency %v per frame (comm.DelayTransport over the in-memory mesh), paid by both modes", OverlapWireLatency),
			"Modeled virtual seconds are identical between modes by construction (the run panics otherwise)",
		},
	}
	for _, s := range overlapScenarios {
		for _, n := range sc.WallProcs {
			r := RunOverlapScenario(sc, s.body, n, sc.WallReps)
			t.Rows = append(t.Rows, []string{
				s.name, fmt.Sprint(n),
				fsec(r.BlockWall), fsec(r.OverWall), f2(r.BlockWall / r.OverWall),
				fsec(r.BlockComm), fsec(r.OverComm), f2(100 * r.HiddenFrac()),
				f3(r.BlockVsec),
			})
		}
	}
	return t
}

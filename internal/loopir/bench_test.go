package loopir

import (
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// BenchmarkExecute times one warm Execute per op of each loop kind in each
// single-loop executor mode, at 2 ranks on the in-memory transport. The
// inspector runs before the timer starts, so ns/op is the executor alone:
// buffer set-up, data motion and the body calls over every iteration.
func BenchmarkExecute(b *testing.B) {
	modes := []struct {
		name          string
		overlap, self bool
	}{{"blocking", false, false}, {"overlap", true, false}, {"selfsched", false, true}}
	kinds := []struct {
		name  string
		setup func(p *comm.Proc, overlap, self bool) func()
	}{{"sum", benchSumLoop}, {"pair", benchPairLoop}}
	for _, k := range kinds {
		for _, m := range modes {
			b.Run(k.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
					exec := k.setup(p, m.overlap, m.self)
					exec()
					p.Barrier()
					if p.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						exec()
					}
					p.Barrier()
					if p.Rank() == 0 {
						b.StopTimer()
					}
				})
			})
		}
	}
}

const benchN = 4000

// benchSumLoop builds a 3-wide Figure 10 sum loop over a skewed CSR of
// about 30k pairs and returns its Execute.
func benchSumLoop(p *comm.Proc, overlap, self bool) func() {
	gptr, gvals := skewedCSR(benchN, 16, 4, 1)
	prog := NewProgram(p)
	dec := prog.Decomposition(benchN)
	x := dec.AlignReal(3)
	f := dec.AlignReal(3)
	x.SetByGlobal(func(g int32, c []float64) { c[0], c[1], c[2] = float64(g), 1, -float64(g) })
	ind := dec.AlignIndCSR()
	ind.SetCSR(localizeCSR(p, benchN, gptr, gvals))
	loop := prog.NewSumLoop(ind, x, f, 20, figure10Body)
	if self {
		loop.SelfSched(adapt.NewController())
	}
	loop.Overlap(overlap)
	return loop.Execute
}

// benchPairLoop builds a 3-wide bonded pair loop of 30k random iterations
// reading a per-iteration parameter and returns its Execute.
func benchPairLoop(p *comm.Proc, overlap, self bool) func() {
	const nBonds = 30000
	rng := rand.New(rand.NewSource(2))
	gia := make([]int32, nBonds)
	gib := make([]int32, nBonds)
	for k := range gia {
		gia[k] = int32(rng.Intn(benchN))
		gib[k] = int32(rng.Intn(benchN))
	}
	prog := NewProgram(p)
	data := prog.Decomposition(benchN)
	bonds := prog.Decomposition(nBonds)
	x := data.AlignReal(3)
	f := data.AlignReal(3)
	x.SetByGlobal(func(g int32, c []float64) { c[0], c[1], c[2] = float64(g), 1, -float64(g) })
	prm := bonds.AlignReal(1)
	prm.SetByGlobal(func(g int32, c []float64) { c[0] = 1 + float64(g%7) })
	ia := bonds.AlignIndFlat(1)
	ib := bonds.AlignIndFlat(1)
	lo, hi := partition.BlockRange(p.Rank(), nBonds, p.Size())
	ia.SetFlat(gia[lo:hi])
	ib.SetFlat(gib[lo:hi])
	loop := prog.NewPairLoop(ia, ib, x, f, 20, func(k int, xi, xj, fi, fj []float64) {
		pairParamKernel(prm.Local()[k:k+1], xi, xj, fi, fj)
	})
	if self {
		ctl := adapt.NewController()
		ctl.MinChunkUnits = 64
		loop.SelfSched(ctl, prm, pairParamKernel)
	}
	loop.Overlap(overlap)
	return loop.Execute
}

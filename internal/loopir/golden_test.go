package loopir

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// goldenMode is one executor configuration of the golden table.
type goldenMode struct {
	name           string
	overlap, self  bool
	fused, hoisted bool
}

var goldenModes = []goldenMode{
	{name: "blocking"},
	{name: "overlap", overlap: true},
	{name: "selfsched", self: true},
	{name: "overlap+selfsched", overlap: true, self: true},
	{name: "shared+fused", fused: true},
	{name: "hoisted", hoisted: true},
}

// goldenOut is what one golden run pins: the makespan, a fold of every
// rank's clock, a fold of every rank's executor data-motion statistics, a
// fold of every result array, and the steal count seen on rank 0.
type goldenOut struct {
	maxClock, clocks, motion, result uint64
	steals                           int
}

func (o goldenOut) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %#x, %d}", o.maxClock, o.clocks, o.motion, o.result, o.steals)
}

// goldenFold accumulates values into one FNV-1a digest.
type goldenFold struct{ words []uint64 }

func (g *goldenFold) f64s(v []float64) {
	for _, x := range v {
		g.words = append(g.words, math.Float64bits(x))
	}
}

func (g *goldenFold) stats(s comm.Stats) {
	g.words = append(g.words, math.Float64bits(s.ComputeTime), math.Float64bits(s.CommTime),
		uint64(s.MsgsSent), uint64(s.BytesSent), uint64(s.MsgsRecv), uint64(s.BytesRecv))
}

func (g *goldenFold) sum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range g.words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenRun executes the per-rank bodies, then folds their outputs in rank
// order.
func goldenRun(nprocs int, body func(p *comm.Proc) (results [][]float64, motion comm.Stats, steals int)) goldenOut {
	results := make([][][]float64, nprocs)
	motion := make([]comm.Stats, nprocs)
	steals := 0
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		r, m, s := body(p)
		results[p.Rank()], motion[p.Rank()] = r, m
		if p.Rank() == 0 {
			steals = s
		}
	})
	var clocks, mot, res goldenFold
	clocks.f64s(rep.Clocks)
	for r := 0; r < nprocs; r++ {
		mot.stats(motion[r])
		for _, a := range results[r] {
			res.f64s(a)
		}
	}
	return goldenOut{math.Float64bits(rep.MaxClock()), clocks.sum(), mot.sum(), res.sum(), steals}
}

func halfBody(xi, xj, fi, fj []float64) {
	for c := range xi {
		fj[c] += xj[c] * 0.5
		fi[c] += xi[c] * 0.5
	}
}

// goldenSum drives a Figure 10 sum loop (a second identical-usage loop
// joins it in shared+fused mode) through two steady executes, an ADAPT of
// the indirection array and a redistribution.
func goldenSum(nprocs int, m goldenMode) goldenOut {
	const n, w = 120, 2
	gptr, gvals := skewedCSR(n, 14, 1, 5)
	rng := rand.New(rand.NewSource(8))
	x0 := make([]float64, n*w)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	return goldenRun(nprocs, func(p *comm.Proc) ([][]float64, comm.Stats, int) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(w)
		f := dec.AlignReal(w)
		g := dec.AlignReal(w)
		x.SetByGlobal(func(gi int32, c []float64) { copy(c, x0[int(gi)*w:]) })
		ind := dec.AlignIndCSR()
		ind.SetCSR(localizeCSR(p, n, gptr, gvals))
		l1 := prog.NewSumLoop(ind, x, f, 60, figure10Body)
		l2 := prog.NewSumLoop(ind, x, g, 20, halfBody)
		var ctl *adapt.Controller
		if m.self {
			ctl = adapt.NewController()
			l1.SelfSched(ctl)
		}
		l1.Overlap(m.overlap)
		if m.fused {
			gr := prog.NewSharedSched(dec)
			l1.Share(gr)
			l2.Share(gr)
		}
		if m.hoisted {
			l1.SetHoisted(true)
			l1.Inspect()
		}
		steals := 0
		run := func() {
			if m.fused {
				ExecuteFusedSum([]*SumLoop{l1, l2})
			} else {
				l1.Execute()
			}
			if ctl != nil {
				steals += len(ctl.Steals())
			}
		}
		run()
		run()
		ind.Touch()
		run()
		owners := make([]int32, dec.NLocal())
		for i, gi := range dec.Globals() {
			owners[i] = (gi * 7) % int32(p.Size())
		}
		dec.Redistribute(owners)
		run()
		return [][]float64{f.Local(), g.Local()}, l1.DataMotion(), steals
	})
}

// goldenPair drives a Figure 2 bonded pair loop with a per-iteration
// parameter, on a skewed iteration distribution, through two steady
// executes, an ADAPT of one indirection array, a data redistribution and an
// iteration redistribution.
func goldenPair(nprocs int, m goldenMode) goldenOut {
	const nData, nBonds, w = 90, 200, 2
	rng := rand.New(rand.NewSource(12))
	gia := make([]int32, nBonds)
	gib := make([]int32, nBonds)
	for k := range gia {
		gia[k] = int32(rng.Intn(nData))
		gib[k] = int32(rng.Intn(nData))
	}
	gib[3] = gia[3] // one aliased iteration
	x0 := make([]float64, nData*w)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	prm0 := make([]float64, nBonds)
	for i := range prm0 {
		prm0[i] = 0.5 + rng.Float64()
	}
	return goldenRun(nprocs, func(p *comm.Proc) ([][]float64, comm.Stats, int) {
		prog := NewProgram(p)
		data := prog.Decomposition(nData)
		bonds := prog.Decomposition(nBonds)
		x := data.AlignReal(w)
		f := data.AlignReal(w)
		g := data.AlignReal(w)
		x.SetByGlobal(func(gi int32, c []float64) { copy(c, x0[int(gi)*w:]) })
		prm := bonds.AlignReal(1)
		prm.SetByGlobal(func(gi int32, c []float64) { c[0] = prm0[gi] })
		ia := bonds.AlignIndFlat(1)
		ib := bonds.AlignIndFlat(1)
		lo, hi := partition.BlockRange(p.Rank(), nBonds, p.Size())
		ia.SetFlat(append([]int32(nil), gia[lo:hi]...))
		ib.SetFlat(append([]int32(nil), gib[lo:hi]...))
		// Pile two thirds of the iterations onto rank 0, so self-scheduling
		// has load to move.
		skew := make([]int32, bonds.NLocal())
		for i, gi := range bonds.Globals() {
			if gi >= 2*nBonds/3 {
				skew[i] = gi % int32(p.Size())
			}
		}
		bonds.Redistribute(skew)
		l1 := prog.NewPairLoop(ia, ib, x, f, 200, func(k int, xi, xj, fi, fj []float64) {
			pairParamKernel(prm.Local()[k:k+1], xi, xj, fi, fj)
		})
		l2 := prog.NewPairLoop(ia, ib, x, g, 10, bondBody)
		var ctl *adapt.Controller
		if m.self {
			ctl = adapt.NewController()
			ctl.MinChunkUnits = 8
			l1.SelfSched(ctl, prm, pairParamKernel)
		}
		l1.Overlap(m.overlap)
		if m.fused {
			gr := prog.NewSharedSched(data)
			l1.Share(gr)
			l2.Share(gr)
		}
		if m.hoisted {
			l1.SetHoisted(true)
			l1.Inspect()
		}
		steals := 0
		run := func() {
			if m.fused {
				ExecuteFusedPair([]*PairLoop{l1, l2})
			} else {
				l1.Execute()
			}
			if ctl != nil {
				steals += len(ctl.Steals())
			}
		}
		run()
		run()
		ib.Touch()
		run()
		owners := make([]int32, data.NLocal())
		for i, gi := range data.Globals() {
			owners[i] = (gi*5 + 1) % int32(p.Size())
		}
		data.Redistribute(owners)
		run()
		bOwners := make([]int32, bonds.NLocal())
		for i, gi := range bonds.Globals() {
			bOwners[i] = (gi * 3) % int32(p.Size())
		}
		bonds.Redistribute(bOwners)
		run()
		return [][]float64{f.Local(), g.Local()}, l1.DataMotion(), steals
	})
}

// goldenWant pins, per loop kind, mode and rank count, the virtual clocks,
// executor data motion and result bits of the executor as first captured,
// so any change to a modeled charge, a message or a float summation order
// of any executor mode shows here.
var goldenWant = map[string]goldenOut{
	"sum/blocking/2":           {0x3f9f543b96841065, 0x9be245a94dc63047, 0x966c208c447c60af, 0xead3fbcc8bc91036, 0},
	"sum/blocking/3":           {0x3f9cb514ca3c79ac, 0xe4eb8dfa2af77a00, 0x30c3bfff9e48907e, 0xdbd2bea1a0edf49e, 0},
	"sum/overlap/2":            {0x3f9f543b96841065, 0x9be245a94dc63047, 0x966c208c447c60af, 0xead3fbcc8bc91036, 0},
	"sum/overlap/3":            {0x3f9cb514ca3c79ac, 0xe4eb8dfa2af77a00, 0x30c3bfff9e48907e, 0xdbd2bea1a0edf49e, 0},
	"sum/selfsched/2":          {0x3f9f62e1a19b1ac4, 0x1926afbf7e9bfa75, 0x6be31a8cc31f876f, 0xead3fbcc8bc91036, 3},
	"sum/selfsched/3":          {0x3f9c70cc45e9434c, 0xa992d4d1cd7e542c, 0x2df812f783afea6e, 0xdbd2bea1a0edf49e, 5},
	"sum/overlap+selfsched/2":  {0x3f9f62e1a19b1ac4, 0x1926afbf7e9bfa75, 0x6be31a8cc31f876f, 0xead3fbcc8bc91036, 3},
	"sum/overlap+selfsched/3":  {0x3f9c70cc45e9434c, 0xa992d4d1cd7e542c, 0x2df812f783afea6e, 0xdbd2bea1a0edf49e, 5},
	"sum/shared+fused/2":       {0x3fa427357908aa6a, 0x972362f17fb840d7, 0x243cfa845185aa5, 0x7a2db5c3b8683ba8, 0},
	"sum/shared+fused/3":       {0x3fa224d475b893da, 0xb071e3bf9550706e, 0xec32669a74fcae65, 0xa69f3fe4a553dcc3, 0},
	"sum/hoisted/2":            {0x3f9f4f3319070d05, 0xe2c6e755da9147f6, 0x9fa18f8be99d5ff7, 0xead3fbcc8bc91036, 0},
	"sum/hoisted/3":            {0x3f9cb1b9cbe92215, 0xc619995ca609e353, 0x30fa14550122cb7a, 0xdbd2bea1a0edf49e, 0},
	"pair/blocking/2":          {0x3fa6c50b625ec4dc, 0x501066d23bbe4834, 0xa9d7b40fdf87ce64, 0xa97ecc28da086204, 0},
	"pair/blocking/3":          {0x3fa8c1d5a2df3d8d, 0xb1a8ac30bea4f351, 0x82653394e98eb262, 0xde6b86b6281ddef5, 0},
	"pair/overlap/2":           {0x3fa6c50b625ec4dc, 0x501066d23bbe4834, 0xa9d7b40fdf87ce64, 0xa97ecc28da086204, 0},
	"pair/overlap/3":           {0x3fa8c1d5a2df3d8d, 0xb1a8ac30bea4f351, 0x82653394e98eb262, 0xde6b86b6281ddef5, 0},
	"pair/selfsched/2":         {0x3fa3edde1472d3b6, 0xf78319de6ca7d1a, 0x3746d773cce37b96, 0xa97ecc28da086204, 15},
	"pair/selfsched/3":         {0x3fa3284771d98c0f, 0xf35922da2ebc6497, 0x81c3652e97c1ac8a, 0xde6b86b6281ddef5, 48},
	"pair/overlap+selfsched/2": {0x3fa3edde1472d3b6, 0xf78319de6ca7d1a, 0x3746d773cce37b96, 0xa97ecc28da086204, 15},
	"pair/overlap+selfsched/3": {0x3fa3284771d98c0f, 0xf35922da2ebc6497, 0x81c3652e97c1ac8a, 0xde6b86b6281ddef5, 48},
	"pair/shared+fused/2":      {0x3fa858a181c56780, 0x4b0f129a19ad80a3, 0x243cfa845185aa5, 0xecdea396b645e63c, 0},
	"pair/shared+fused/3":      {0x3faa2d125ccee2f6, 0xf58c56b765972276, 0xec32669a74fcae65, 0x1086739d8a8b15cb, 0},
	"pair/hoisted/2":           {0x3fa6c291e067b444, 0x39cded2158125c7b, 0x2e093bf53a9d1cc9, 0xa97ecc28da086204, 0},
	"pair/hoisted/3":           {0x3fa8c0e40b57cceb, 0x61ae3a68fc50a725, 0x2611713de9e551a4, 0xde6b86b6281ddef5, 0},
}

// TestExecutorGolden pins every executor mode of both loop kinds against
// absolute virtual clocks, data motion and result bits.
func TestExecutorGolden(t *testing.T) {
	for _, kind := range []string{"sum", "pair"} {
		for _, m := range goldenModes {
			for _, nprocs := range []int{2, 3} {
				key := fmt.Sprintf("%s/%s/%d", kind, m.name, nprocs)
				var got goldenOut
				if kind == "sum" {
					got = goldenSum(nprocs, m)
				} else {
					got = goldenPair(nprocs, m)
				}
				if m.self && got.steals == 0 {
					t.Errorf("%s: no steals; the self-scheduled golden run does not cover the steal path", key)
				}
				if want, ok := goldenWant[key]; !ok || want != got {
					t.Errorf("%q: %v, // want %v", key, got, want)
				}
			}
		}
	}
}

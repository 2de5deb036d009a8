package remap

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/ttable"
)

// goldenOut is what one golden run pins: the makespan, a fold of every
// rank's clock, a fold of every rank's statistics and a fold of every
// rank's moved arrays.
type goldenOut struct{ maxClock, clocks, stats, result uint64 }

func (o goldenOut) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %#x}", o.maxClock, o.clocks, o.stats, o.result)
}

// fnvWords folds words into one FNV-1a digest.
func fnvWords(words []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenPlanRun moves a width-3 float64 array, a width-2 int32 array and a
// CSR structure with empty and non-empty rows through one plan, twice, on
// nprocs ranks under the iPSC/860 model.
func goldenPlanRun(nprocs int) goldenOut {
	const n = 80
	res := make([][]uint64, nprocs)
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = int32((g*7 + g/5) % int32(nprocs))
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)

		fs := make([]float64, 3*len(gs))
		for i := range fs {
			fs[i] = float64(int(gs[i/3])*3+i%3) / 7
		}
		is := make([]int32, 2*len(gs))
		for i := range is {
			is[i] = gs[i/2]*10 + int32(i%2)
		}
		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			for k := int32(0); k < g%5; k++ {
				vals = append(vals, g*100+k)
			}
			ptr[i+1] = int32(len(vals))
		}
		var w []uint64
		for i := 0; i < 2; i++ {
			for _, x := range pl.MoveF64(p, fs, 3) {
				w = append(w, math.Float64bits(x))
			}
			for _, x := range pl.MoveI32(p, is, 2) {
				w = append(w, uint64(uint32(x)))
			}
			newPtr, newVals := pl.MoveCSR(p, ptr, vals)
			for _, x := range append(newPtr, newVals...) {
				w = append(w, uint64(uint32(x)))
			}
		}
		res[p.Rank()] = w
	})
	var clocks, stats, all []uint64
	for r := 0; r < nprocs; r++ {
		s := rep.Stats[r]
		clocks = append(clocks, math.Float64bits(rep.Clocks[r]))
		stats = append(stats, math.Float64bits(s.ComputeTime), math.Float64bits(s.CommTime),
			uint64(s.MsgsSent), uint64(s.BytesSent), uint64(s.MsgsRecv), uint64(s.BytesRecv))
		all = append(all, res[r]...)
	}
	return goldenOut{math.Float64bits(rep.MaxClock()), fnvWords(clocks), fnvWords(stats), fnvWords(all)}
}

// goldenPlanWant pins each rank count: a change to any clock, message or
// byte count, or moved value moves its digest.
var goldenPlanWant = map[int]goldenOut{
	2: {0x3f64a5538c192871, 0xd1ad3fbd0b5bd773, 0x4c0d3a2df17682bf, 0x9f810a1dbffbaae1},
	3: {0x3f69d18d50e0ee15, 0xfce00b9e07f36303, 0xaf8546f6385fd313, 0xeb6c41fc8c900621},
}

// TestPlanMoveGolden pins the clocks, message statistics and result bits
// of Plan's movers on 2 and 3 ranks of the in-memory transport.
func TestPlanMoveGolden(t *testing.T) {
	for _, nprocs := range []int{2, 3} {
		if got, want := goldenPlanRun(nprocs), goldenPlanWant[nprocs]; got != want {
			t.Errorf("%d: %v, // want %v", nprocs, got, want)
		}
	}
}

package schedule

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/ttable"
)

// buildTestSched hashes a per-rank random indirection array and builds its
// schedule; returns the table (for sizes) and localized indices.
func buildTestSched(p *comm.Proc, perProc, nIndex int, seed uint64) (*hashtab.Table, *Schedule, []int32) {
	slab := make([]int32, perProc)
	for i := range slab {
		slab[i] = int32(p.Rank())
	}
	tt := ttable.Build(p, ttable.Replicated, slab)
	ht := hashtab.New(p, tt)
	rng := propRng(seed + 7777*uint64(p.Rank()))
	ind := make([]int32, nIndex)
	for i := range ind {
		ind[i] = int32(rng.intn(perProc * p.Size()))
	}
	st := ht.NewStamp()
	loc := ht.Hash(ind, st)
	return ht, Build(p, ht, st, 0), loc
}

// TestSplitPhaseParity is the split-phase contract test: a gather+scatter
// round through GatherWStart/ScatterWStart — with real (uncharged) work in
// both windows — leaves every rank's virtual clock, statistics, and data
// buffer bit-identical to the blocking GatherW/ScatterW round.
func TestSplitPhaseParity(t *testing.T) {
	const (
		nprocs  = 3
		perProc = 11
		nIndex  = 23
		width   = 2
	)
	run := func(split bool) ([]float64, *comm.Report) {
		data := make([][]float64, nprocs)
		rep := comm.Run(nprocs, costmodel.Uniform(2e-8), func(p *comm.Proc) {
			ht, s, loc := buildTestSched(p, perProc, nIndex, 99)
			n := ht.NLocal() + ht.NGhosts()
			x := make([]float64, n*width)
			for i := 0; i < ht.NLocal()*width; i++ {
				x[i] = float64(p.Rank()*1000+i) * 1.0625
			}
			if split {
				mo := GatherWStart(p, s, x, width)
				// Overlap window: interior-style real work — owned slots may
				// be read and (per the contract) even mutated while ghost
				// frames are in flight, as long as nothing charges time.
				acc := 0.0
				for i := 0; i < ht.NLocal()*width; i++ {
					acc += x[i]
				}
				mo.Wait()
				mo.Wait() // idempotent
				_ = acc
			} else {
				GatherW(p, s, x, width)
			}
			// Scatter the gathered values back with OpAdd.
			f := make([]float64, n*width)
			for _, l := range loc {
				for c := 0; c < width; c++ {
					f[int(l)*width+c] += x[int(l)*width+c] * 0.5
				}
			}
			if split {
				mo := ScatterWStart(p, s, f, width, OpAdd)
				// Owned section writes are allowed while ghosts are on the
				// wire: remote combines land after Wait, like blocking
				// combines land after the local loop.
				for i := 0; i < ht.NLocal()*width; i++ {
					f[i] += 0.25
				}
				mo.Wait()
			} else {
				ScatterW(p, s, f, width, OpAdd)
				for i := 0; i < ht.NLocal()*width; i++ {
					f[i] += 0.25
				}
			}
			data[p.Rank()] = append(x[:len(x):len(x)], f...)
		})
		flat := []float64{}
		for _, d := range data {
			flat = append(flat, d...)
		}
		return flat, rep
	}

	blockData, blockRep := run(false)
	splitData, splitRep := run(true)
	for r := 0; r < nprocs; r++ {
		if math.Float64bits(blockRep.Clocks[r]) != math.Float64bits(splitRep.Clocks[r]) {
			t.Errorf("rank %d: clock %v (blocking) != %v (split-phase)", r, blockRep.Clocks[r], splitRep.Clocks[r])
		}
		if blockRep.Stats[r] != splitRep.Stats[r] {
			t.Errorf("rank %d: stats %+v != %+v", r, blockRep.Stats[r], splitRep.Stats[r])
		}
	}
	if len(blockData) != len(splitData) {
		t.Fatalf("data sizes differ: %d vs %d", len(blockData), len(splitData))
	}
	for i := range blockData {
		if math.Float64bits(blockData[i]) != math.Float64bits(splitData[i]) {
			t.Fatalf("slot %d: %v (blocking) != %v (split-phase)", i, blockData[i], splitData[i])
		}
	}
	// Wait on an owned section that was mutated mid-flight must still have
	// moved the Start-time ghost values: guaranteed by the byte equality
	// above, so just sanity-check communication actually happened.
	if blockRep.TotalMsgsSent() == 0 {
		t.Fatal("test moved no messages; parity is vacuous")
	}
}

// TestMotionInFlightPanic: starting a second motion on a schedule whose
// first motion has not been waited must panic (the two would interleave on
// the same tags).
func TestMotionInFlightPanic(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ht, s, _ := buildTestSched(p, 8, 12, 5)
		x := make([]float64, ht.NLocal()+ht.NGhosts())
		mo := GatherWStart(p, s, x, 1)
		func() {
			defer func() {
				e := recover()
				if e == nil {
					t.Error("second Start on an in-flight schedule did not panic")
					return
				}
				if !strings.Contains(e.(string), "already in flight") {
					t.Errorf("unexpected panic: %v", e)
				}
			}()
			ScatterWStart(p, s, x, 1, OpAdd)
		}()
		mo.Wait()
	})
}

// TestSplitBuilders unit-tests the interior/boundary classification.
func TestSplitBuilders(t *testing.T) {
	// Flat: boundary iff either side is a ghost (nLocal=4, so slots 5 and 6
	// are ghosts).
	la := []int32{0, 5, 1, 2}
	lb := []int32{1, 0, 6, 3}
	bnd := SplitFlat(nil, la, lb, 4)
	if len(bnd) != 2 || bnd[0] != 1 || bnd[1] != 2 {
		t.Fatalf("SplitFlat = %v, want [1 2]", bnd)
	}

	// Rebuild into the same storage with different data.
	bnd2 := SplitFlat(bnd, []int32{4, 0, 3}, []int32{0, 1, 2}, 4)
	if len(bnd2) != 1 || bnd2[0] != 0 {
		t.Fatalf("SplitFlat rebuild = %v, want [0]", bnd2)
	}
	if &bnd2[:cap(bnd2)][0] != &bnd[:cap(bnd)][0] {
		t.Error("SplitFlat rebuild reallocated instead of reusing dst's storage")
	}
}

package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// fusedEnv builds a merged schedule over two reference streams plus two
// data arrays of different widths, mirroring the fused-executor setup: one
// schedule, several arrays moved through it.
func fusedEnv(t *testing.T, nprocs int) (owners, refs []int32) {
	rng := rand.New(rand.NewSource(int64(nprocs) * 31))
	n := 160
	owners = make([]int32, n)
	for i := range owners {
		owners[i] = int32(rng.Intn(nprocs))
	}
	refs = make([]int32, 120)
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	return owners, refs
}

// TestMultiGatherBitIdenticalToSingles checks that one GatherWMulti over
// two arrays delivers bit-for-bit the values two GatherW calls deliver,
// while sending fewer messages (one per peer instead of one per array per
// peer) and the same byte volume.
func TestMultiGatherBitIdenticalToSingles(t *testing.T) {
	for _, nprocs := range []int{2, 3, 5} {
		owners, refs := fusedEnv(t, nprocs)
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			tt, ht := buildEnv(p, owners)
			st := ht.NewStamp()
			ht.Hash(refs, st)
			sched := Build(p, ht, st, 0)

			mk := func(width int, salt float64) []float64 {
				data := make([]float64, sched.MinLen()*width)
				for g, o := range owners {
					if int(o) == p.Rank() {
						off := int(tt.OffsetOf(g))
						for c := 0; c < width; c++ {
							data[off*width+c] = salt + float64(g) + float64(c)*0.25
						}
					}
				}
				return data
			}
			a0, b0 := mk(1, 1000), mk(3, 5000)
			a1 := append([]float64(nil), a0...)
			b1 := append([]float64(nil), b0...)

			before := p.Stats()
			GatherW(p, sched, a0, 1)
			GatherW(p, sched, b0, 3)
			mid := p.Stats()
			GatherWMulti(p, sched, [][]float64{a1, b1}, []int{1, 3})
			after := p.Stats()

			for i, v := range a0 {
				if math.Float64bits(v) != math.Float64bits(a1[i]) {
					t.Fatalf("nprocs=%d rank=%d a[%d]: single %v multi %v", nprocs, p.Rank(), i, v, a1[i])
				}
			}
			for i, v := range b0 {
				if math.Float64bits(v) != math.Float64bits(b1[i]) {
					t.Fatalf("nprocs=%d rank=%d b[%d]: single %v multi %v", nprocs, p.Rank(), i, v, b1[i])
				}
			}

			singleMsgs := mid.MsgsSent - before.MsgsSent
			multiMsgs := after.MsgsSent - mid.MsgsSent
			if singleMsgs > 0 && multiMsgs*2 != singleMsgs {
				t.Errorf("nprocs=%d rank=%d: multi sent %d messages, singles sent %d (want half)",
					nprocs, p.Rank(), multiMsgs, singleMsgs)
			}
			singleBytes := mid.BytesSent - before.BytesSent
			multiBytes := after.BytesSent - mid.BytesSent
			if multiBytes != singleBytes {
				t.Errorf("nprocs=%d rank=%d: multi sent %d bytes, singles sent %d", nprocs, p.Rank(), multiBytes, singleBytes)
			}
		})
	}
}

// TestMultiScatterBitIdenticalToSingles checks the scatter direction: one
// ScatterWMulti combining two contribution arrays must leave bit-identical
// results to two ScatterW calls, in half the messages. OpAdd combines in
// peer-major order in both paths, so even floating-point addition order
// matches.
func TestMultiScatterBitIdenticalToSingles(t *testing.T) {
	for _, nprocs := range []int{2, 4} {
		owners, refs := fusedEnv(t, nprocs)
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			_, ht := buildEnv(p, owners)
			st := ht.NewStamp()
			loc := ht.Hash(refs, st)
			sched := Build(p, ht, st, 0)

			mk := func(width int) []float64 {
				rng := rand.New(rand.NewSource(int64(p.Rank()*7 + width)))
				data := make([]float64, sched.MinLen()*width)
				for _, l := range loc {
					for c := 0; c < width; c++ {
						data[int(l)*width+c] = rng.Float64()
					}
				}
				return data
			}
			a0, b0 := mk(2), mk(1)
			a1 := append([]float64(nil), a0...)
			b1 := append([]float64(nil), b0...)

			before := p.Stats()
			ScatterW(p, sched, a0, 2, OpAdd)
			ScatterW(p, sched, b0, 1, OpAdd)
			mid := p.Stats()
			ScatterWMulti(p, sched, [][]float64{a1, b1}, []int{2, 1}, OpAdd)
			after := p.Stats()

			for i, v := range a0 {
				if math.Float64bits(v) != math.Float64bits(a1[i]) {
					t.Fatalf("nprocs=%d rank=%d a[%d]: single %v multi %v", nprocs, p.Rank(), i, v, a1[i])
				}
			}
			for i, v := range b0 {
				if math.Float64bits(v) != math.Float64bits(b1[i]) {
					t.Fatalf("nprocs=%d rank=%d b[%d]: single %v multi %v", nprocs, p.Rank(), i, v, b1[i])
				}
			}
			singleMsgs := mid.MsgsSent - before.MsgsSent
			multiMsgs := after.MsgsSent - mid.MsgsSent
			if singleMsgs > 0 && multiMsgs*2 != singleMsgs {
				t.Errorf("nprocs=%d rank=%d: multi sent %d messages, singles sent %d (want half)",
					nprocs, p.Rank(), multiMsgs, singleMsgs)
			}
		})
	}
}

// TestMultiValidation exercises the argument checks every transfer shares:
// fused, single-array and split-phase.
func TestMultiValidation(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		owners := []int32{0, 0, 0, 0}
		refs := []int32{1, 3}
		_, ht := buildEnv(p, owners)
		st := ht.NewStamp()
		ht.Hash(refs, st)
		sched := Build(p, ht, st, 0)

		expectPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		data := make([]float64, sched.MinLen())
		expectPanic("mismatched lengths", func() {
			GatherWMulti(p, sched, [][]float64{data}, []int{1, 2})
		})
		expectPanic("zero width", func() {
			GatherWMulti(p, sched, [][]float64{data}, []int{0})
		})
		expectPanic("short buffer", func() {
			ScatterWMulti(p, sched, [][]float64{data}, []int{2}, OpAdd)
		})
		for _, w := range []int{0, -1} {
			expectPanic(fmt.Sprintf("GatherW width %d", w), func() { GatherW(p, sched, data, w) })
			expectPanic(fmt.Sprintf("ScatterW width %d", w), func() { ScatterW(p, sched, data, w, OpAdd) })
			expectPanic(fmt.Sprintf("GatherWStart width %d", w), func() { GatherWStart(p, sched, data, w) })
			expectPanic(fmt.Sprintf("ScatterWStart width %d", w), func() { ScatterWStart(p, sched, data, w, OpAdd) })
		}
		// A rejected Start leaves no motion in flight.
		GatherWStart(p, sched, data, 1).Wait()
	})
}

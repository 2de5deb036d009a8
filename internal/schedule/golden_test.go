package schedule

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/ttable"
)

// goldenOut is what one golden run pins: the makespan, a fold of every
// rank's clock, a fold of every rank's statistics and a fold of every
// rank's result arrays.
type goldenOut struct{ maxClock, clocks, stats, result uint64 }

func (o goldenOut) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %#x}", o.maxClock, o.clocks, o.stats, o.result)
}

// goldenFold accumulates values into one FNV-1a digest.
type goldenFold struct{ words []uint64 }

func (g *goldenFold) f64s(v []float64) {
	for _, x := range v {
		g.words = append(g.words, math.Float64bits(x))
	}
}

func (g *goldenFold) i32s(v []int32) {
	for _, x := range v {
		g.words = append(g.words, uint64(uint32(x)))
	}
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

// goldenRun executes body on every rank under the iPSC/860 model, then
// folds clocks, statistics and each rank's results in rank order.
func goldenRun(nprocs int, body func(p *comm.Proc, res *goldenFold)) goldenOut {
	res := make([]goldenFold, nprocs)
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		body(p, &res[p.Rank()])
	})
	var clocks, stats, all goldenFold
	clocks.f64s(rep.Clocks)
	for r := 0; r < nprocs; r++ {
		s := rep.Stats[r]
		stats.words = append(stats.words, math.Float64bits(s.ComputeTime), math.Float64bits(s.CommTime),
			uint64(s.MsgsSent), uint64(s.BytesSent), uint64(s.MsgsRecv), uint64(s.BytesRecv))
		all.words = append(all.words, res[r].words...)
	}
	return goldenOut{math.Float64bits(rep.MaxClock()), clocks.sum(), stats.sum(), all.sum()}
}

const goldenN = 90

// goldenOwners is the owner map of the golden runs' goldenN globals.
func goldenOwners(nprocs int) []int32 {
	rng := rand.New(rand.NewSource(int64(17 * nprocs)))
	owners := make([]int32, goldenN)
	for i := range owners {
		owners[i] = int32(rng.Intn(nprocs))
	}
	return owners
}

// goldenSched builds a regular schedule over a per-rank random reference
// stream (duplicates and owned references included).
func goldenSched(p *comm.Proc, owners []int32) (*ttable.Table, *Schedule) {
	tt, ht := buildEnv(p, owners)
	rng := rand.New(rand.NewSource(int64(41 + p.Rank())))
	refs := make([]int32, 70)
	for i := range refs {
		refs[i] = int32(rng.Intn(goldenN))
	}
	st := ht.NewStamp()
	ht.Hash(refs, st)
	return tt, Build(p, ht, st, 0)
}

// goldenData returns n values whose order differs from rank to rank, so
// every combine op picks a mix of resident and incoming values.
func goldenData(p *comm.Proc, n int, salt int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((p.Rank()*7919+i*104729+salt*31)%1000) / 7
	}
	return data
}

// goldenCases are the data-motion scenarios the golden table pins. Each
// transfer runs twice so the second call reuses warmed staging scratch.
var goldenCases = []struct {
	name string
	body func(p *comm.Proc, owners []int32, res *goldenFold)
}{
	{"gather", func(p *comm.Proc, owners []int32, res *goldenFold) {
		_, s := goldenSched(p, owners)
		data := goldenData(p, s.MinLen(), 1)
		for i := 0; i < 2; i++ {
			Gather(p, s, data)
		}
		res.f64s(data)
	}},
	{"scatter-replace", goldenScatter(OpReplace)},
	{"scatter-add", goldenScatter(OpAdd)},
	{"scatter-max", goldenScatter(OpMax)},
	{"scatter-min", goldenScatter(OpMin)},
	{"multi", func(p *comm.Proc, owners []int32, res *goldenFold) {
		_, s := goldenSched(p, owners)
		a, b := goldenData(p, s.MinLen(), 2), goldenData(p, 3*s.MinLen(), 3)
		for i := 0; i < 2; i++ {
			GatherWMulti(p, s, [][]float64{a, b}, []int{1, 3})
			ScatterWMulti(p, s, [][]float64{a, b}, []int{1, 3}, OpAdd)
		}
		res.f64s(a)
		res.f64s(b)
	}},
	{"start", func(p *comm.Proc, owners []int32, res *goldenFold) {
		_, s := goldenSched(p, owners)
		data := goldenData(p, 2*s.MinLen(), 4)
		for i := 0; i < 2; i++ {
			GatherWStart(p, s, data, 2).Wait()
			ScatterWStart(p, s, data, 2, OpAdd).Wait()
		}
		res.f64s(data)
	}},
	{"translated", func(p *comm.Proc, owners []int32, res *goldenFold) {
		tt, _ := buildEnv(p, owners)
		// Distinct references: a per-rank random subset of the globals.
		rng := rand.New(rand.NewSource(int64(53 + p.Rank())))
		perm := rng.Perm(goldenN)[:50]
		own, off := make([]int32, len(perm)), make([]int32, len(perm))
		for k, g := range perm {
			own[k], off[k] = tt.OwnerOf(g), tt.OffsetOf(g)
		}
		s, loc := FromTranslated(p, tt.NLocal(p.Rank()), own, off)
		data := goldenData(p, 3*s.MinLen(), 5)
		for i := 0; i < 2; i++ {
			ScatterW(p, s, data, 3, OpAdd)
		}
		res.i32s(loc)
		res.f64s(data)
	}},
	{"light", func(p *comm.Proc, _ []int32, res *goldenFold) {
		rng := rand.New(rand.NewSource(int64(61 + p.Rank())))
		dest := make([]int32, 40)
		for i := range dest {
			dest[i] = int32(rng.Intn(p.Size()))
		}
		fs := goldenData(p, 2*len(dest), 6)
		is := make([]int32, 2*len(dest))
		for i := range is {
			is[i] = int32(p.Rank()*1000 + i)
		}
		ls := BuildLight(p, dest)
		var out []float64
		for i := 0; i < 2; i++ {
			out = ls.MoveF64Into(p, dest, fs, 2, out)
			res.f64s(out)
			res.i32s(ls.MoveI32(p, dest, is, 2))
		}
	}},
}

// goldenScatter is a width-3 ScatterW case under op.
func goldenScatter(op CombineOp) func(p *comm.Proc, owners []int32, res *goldenFold) {
	return func(p *comm.Proc, owners []int32, res *goldenFold) {
		_, s := goldenSched(p, owners)
		data := goldenData(p, 3*s.MinLen(), int(op))
		for i := 0; i < 2; i++ {
			ScatterW(p, s, data, 3, op)
		}
		res.f64s(data)
	}
}

// goldenWant pins every case: a change to any clock, message or byte count,
// or result bit of a transfer moves its digest.
var goldenWant = map[string]goldenOut{
	"gather/2":          {0x3f59a26875345f82, 0xeffa1f6c0d00f591, 0xa7742c0383c87a7a, 0xe92c128cac5aa4c1},
	"gather/3":          {0x3f60be134b8c4572, 0x55109bd7efefa59b, 0xc025c9c0453813a3, 0x64147e6e7be45966},
	"scatter-replace/2": {0x3f5eb6fa5296fbae, 0x2cfee5c92c89d1e1, 0x4aa3c2491a8ac07d, 0x4792fd53d8101c8d},
	"scatter-replace/3": {0x3f6230842c4a0ae6, 0x3a2f662551e6a77d, 0x76724783c7f73d8e, 0x850055bc84b76e},
	"scatter-add/2":     {0x3f5eb6fa5296fbae, 0x2cfee5c92c89d1e1, 0x4aa3c2491a8ac07d, 0x9471251a043ba344},
	"scatter-add/3":     {0x3f6230842c4a0ae6, 0x3a2f662551e6a77d, 0x76724783c7f73d8e, 0x788717ae90aae1bc},
	"scatter-max/2":     {0x3f5eb6fa5296fbae, 0x2cfee5c92c89d1e1, 0x4aa3c2491a8ac07d, 0x3b9aa44b0eda6887},
	"scatter-max/3":     {0x3f6230842c4a0ae6, 0x3a2f662551e6a77d, 0x76724783c7f73d8e, 0x4230bb62e74c9d74},
	"scatter-min/2":     {0x3f5eb6fa5296fbae, 0x2cfee5c92c89d1e1, 0x4aa3c2491a8ac07d, 0xa6878f3f26070e7b},
	"scatter-min/3":     {0x3f6230842c4a0ae6, 0x3a2f662551e6a77d, 0x76724783c7f73d8e, 0xb3b410225a0698c},
	"multi/2":           {0x3f687b61753aea8b, 0xde181f51d22ddd6e, 0x52757dfb109744d6, 0xadccbc248b161da},
	"multi/3":           {0x3f6a0ad8a116659a, 0x82ce4e6f69b0d496, 0xf5c551215375b62b, 0xf66a2f5bd4c45f8},
	"start/2":           {0x3f62814c70c6e785, 0x5df217aabbe7cd77, 0x64596102554bb0d3, 0xabe0d3988808c79f},
	"start/3":           {0x3f65ce080b3c492f, 0xc8865f26469250, 0xd07c0c2b3c5ada23, 0xff85ebd0f864233a},
	"translated/2":      {0x3f5e6012645b9f37, 0x134688fcc260bb17, 0xd664bf350bae99ee, 0xaab30b7cb71addf8},
	"translated/3":      {0x3f617a25e0e5329e, 0x5d1094c62f4c625f, 0x2d56b121942efcf1, 0x364214810c9e274e},
	"light/2":           {0x3f4a0234b8996415, 0x209c6f0ff4ce06cb, 0xecff5f3b2c02a2b, 0xb8e5939ecdf48139},
	"light/3":           {0x3f506c08e7b027fb, 0x48757af54cac2a7f, 0xd91f1028051a0be6, 0xc8fc9c24f8f27ad9},
}

// TestDataMotionGolden pins the clocks, message statistics and result bits
// of every schedule transfer on 2 and 3 ranks of the in-memory transport.
func TestDataMotionGolden(t *testing.T) {
	for _, c := range goldenCases {
		for _, nprocs := range []int{2, 3} {
			key := fmt.Sprintf("%s/%d", c.name, nprocs)
			owners := goldenOwners(nprocs)
			got := goldenRun(nprocs, func(p *comm.Proc, res *goldenFold) { c.body(p, owners, res) })
			if want, ok := goldenWant[key]; !ok || want != got {
				t.Errorf("%q: %v, // want %v", key, got, want)
			}
		}
	}
}

package main

import (
	"math"
	"runtime"

	"repro/internal/comm"
	"repro/internal/loopir"
	"repro/internal/partition"
)

// kernelInput is the kernel-remap input: atom positions and the global
// cutoff-pair list in CSR form (row i holds the partners j > i of atom i).
type kernelInput struct {
	n   int
	pos []float64
	ptr []int32
	nbr []int32
}

// kernelFlopsPerPair is the modeled cost of one pair of Figure 10's body,
// the value charmm.RunKernelCompiled charges.
const kernelFlopsPerPair = 12

// kernelBody is Figure 10's REDUCE(SUM) pair body.
func kernelBody(xi, xj, fi, fj []float64) {
	for c := range xi {
		fj[c] += xj[c] - xi[c]
		fi[c] += xi[c] - xj[c]
	}
}

// cutoffPairs lists every pair i < j closer than cutoff, binning atoms into
// cells at least one cutoff wide so each atom scans its 27 neighbour cells.
func cutoffPairs(pos []float64, n int, box [3]float64, cutoff float64) (ptr, nbr []int32) {
	var dims [3]int
	for d := range dims {
		dims[d] = int(box[d] / cutoff)
		if dims[d] < 1 {
			dims[d] = 1
		}
	}
	cellOf := func(i, d int) int {
		c := int(pos[3*i+d] / box[d] * float64(dims[d]))
		return min(max(c, 0), dims[d]-1)
	}
	cells := make([][]int32, dims[0]*dims[1]*dims[2])
	for i := 0; i < n; i++ {
		c := (cellOf(i, 0)*dims[1]+cellOf(i, 1))*dims[2] + cellOf(i, 2)
		cells[c] = append(cells[c], int32(i))
	}
	c2 := cutoff * cutoff
	ptr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		cx, cy, cz := cellOf(i, 0), cellOf(i, 1), cellOf(i, 2)
		for x := max(cx-1, 0); x <= min(cx+1, dims[0]-1); x++ {
			for y := max(cy-1, 0); y <= min(cy+1, dims[1]-1); y++ {
				for z := max(cz-1, 0); z <= min(cz+1, dims[2]-1); z++ {
					for _, j := range cells[(x*dims[1]+y)*dims[2]+z] {
						if int(j) <= i {
							continue
						}
						dx := pos[3*i] - pos[3*j]
						dy := pos[3*i+1] - pos[3*j+1]
						dz := pos[3*i+2] - pos[3*j+2]
						if dx*dx+dy*dy+dz*dz < c2 {
							nbr = append(nbr, j)
						}
					}
				}
			}
		}
		ptr[i+1] = int32(len(nbr))
	}
	return ptr, nbr
}

// kernelReference evaluates the same pair sums sequentially: iters
// executions of the loop, accumulated the way SumLoop accumulates into dx,
// and returns the mean absolute dx component (the parallel checksum).
func kernelReference(in *kernelInput, iters int) float64 {
	step := make([]float64, 3*in.n)
	for i := 0; i < in.n; i++ {
		for _, j := range in.nbr[in.ptr[i]:in.ptr[i+1]] {
			kernelBody(in.pos[3*i:3*i+3], in.pos[3*j:3*j+3], step[3*i:3*i+3], step[3*j:3*j+3])
		}
	}
	dx := make([]float64, 3*in.n)
	for it := 0; it < iters; it++ {
		for k, v := range step {
			dx[k] += v
		}
	}
	s := 0.0
	for _, v := range dx {
		s += math.Abs(v)
	}
	return s / float64(len(dx))
}

// runKernel is one rank of kernel-remap. It makes the public loopir,
// partition and remap calls charmm.RunKernelCompiled makes, in the same
// order, with a span around each; it keeps no phase timer, so nothing is
// charged twice. On rank 0 of a traced run it also counts the process's
// heap allocations across each Execute.
func runKernel(p *comm.Proc, t *tracer, in *kernelInput, iters int) rankOut {
	rank := p.Rank()
	prog := loopir.NewProgram(p)
	dec := prog.Decomposition(in.n)
	x := dec.AlignReal(3)
	dx := dec.AlignReal(3)
	x.SetByGlobal(func(g int32, c []float64) { copy(c, in.pos[3*g:3*g+3]) })
	ind := dec.AlignIndCSR()
	globals := dec.Globals()
	ptr := make([]int32, len(globals)+1)
	var vals []int32
	for i, g := range globals {
		vals = append(vals, in.nbr[in.ptr[g]:in.ptr[g+1]]...)
		ptr[i+1] = int32(len(vals))
	}
	ind.SetCSR(ptr, vals)
	loop := prog.NewSumLoop(ind, x, dx, kernelFlopsPerPair, kernelBody)

	id := t.begin(rank, "loopir.inspect")
	loop.Inspect()
	t.end(id)

	countAllocs := t != nil && rank == 0
	var ms runtime.MemStats
	var before uint64
	for iter, remaps := 1, 0; iter <= iters; iter++ {
		if iter%kernelRemap == 0 {
			curPtr, _ := ind.CSR()
			g := kernelGeom(x.Local(), curPtr)
			var owners []int32
			if remaps%2 == 0 {
				id = t.begin(rank, "partition.rcb")
				owners = partition.RCB(p, g)
			} else {
				id = t.begin(rank, "partition.rib")
				owners = partition.RIB(p, g)
			}
			t.end(id)
			remaps++
			id = t.begin(rank, "remap.redistribute")
			dec.Redistribute(owners)
			t.end(id)
			id = t.begin(rank, "loopir.inspect")
			loop.Inspect()
			t.end(id)
		}
		if countAllocs {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		id = t.begin(rank, "loopir.execute")
		loop.Execute()
		t.end(id)
		if countAllocs {
			runtime.ReadMemStats(&ms)
			t.execMallocs += ms.Mallocs - before
			t.execCalls++
		}
	}

	s := 0.0
	for _, v := range dx.Local() {
		s += math.Abs(v)
	}
	tot := p.AllReduceF64(comm.OpSum, []float64{s, float64(len(dx.Local()))})
	return rankOut{checksum: tot[0] / tot[1], inspections: loop.Inspections()}
}

// kernelGeom is the partitioner input charmm's kernel uses: owned
// positions, weighted by non-bonded row length.
func kernelGeom(pos []float64, ptr []int32) *partition.Geom {
	n := len(ptr) - 1
	g := &partition.Geom{Dim: 3, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n), W: make([]float64, n)}
	for i := 0; i < n; i++ {
		g.X[i], g.Y[i], g.Z[i] = pos[3*i], pos[3*i+1], pos[3*i+2]
		g.W[i] = 1 + float64(ptr[i+1]-ptr[i])
	}
	return g
}

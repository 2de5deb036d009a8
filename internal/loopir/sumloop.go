package loopir

import (
	"fmt"

	"repro/internal/adapt"
)

// PairBody is the body of a FORALL/REDUCE(SUM) loop iteration over the pair
// (outer element i, indirection target j = ind(k)): xi and xj are the read
// array values at i and j, fi and fj the reduction accumulation slots. The
// body must only add into fi/fj (REDUCE(SUM) semantics).
type PairBody func(xi, xj, fi, fj []float64)

// SumLoop is the compiled form of the irregular reduction template of
// Figures 8 and 10: for every owned element i of the decomposition and
// every inner index k in the CSR row of the indirection array,
//
//	REDUCE(SUM, f(ind(k)), body) and REDUCE(SUM, f(i), body)
//
// reading x at both i and ind(k). x and f must be aligned with the same
// decomposition the indirection array is aligned with (all accesses through
// one distribution, as in the CHARMM loop).
type SumLoop struct {
	loopCore
}

// NewSumLoop compiles a FORALL/REDUCE(SUM) loop. ind must be a CSR
// indirection array; x (read) and f (reduced) must be aligned with the same
// decomposition. flopsPerPair is the modeled arithmetic cost of one body
// invocation.
func (pr *Program) NewSumLoop(ind *IndArray, x, f *RealArray, flopsPerPair int, body PairBody) *SumLoop {
	if ind.ptr == nil {
		panic("loopir: SumLoop requires a CSR indirection array")
	}
	if x.dec != ind.dec || f.dec != ind.dec {
		panic("loopir: SumLoop arrays must be aligned with the indirection array's decomposition")
	}
	if x.width != f.width {
		panic(fmt.Sprintf("loopir: read width %d != reduce width %d", x.width, f.width))
	}
	g := pr.privateSched([]*Decomposition{ind.dec}, ind)
	return &SumLoop{loopCore{prog: pr, x: x, f: f, flops: flopsPerPair, sum: body, rows: ind, group: g, lowered: -1}}
}

// Share points the loop at a group schedule: its indirection array joins
// the group, and all preprocessing is delegated to the group inspector.
// Only legal for loops the reuse analysis proved to have identical
// indirection usage with the other members.
func (l *SumLoop) Share(g *SharedSched) {
	if g.decs[0] != l.rows.dec {
		panic("loopir: SumLoop shared schedule must cover the loop's decomposition")
	}
	m := g.Add(l.rows)
	l.group, l.ma, l.mb, l.lowered = g, m, m, -1
}

// SelfSched enables the adaptive self-scheduling executor mode for the
// loop. Results stay bit-identical to the static Execute; only the virtual
// (and measured) timeline changes. ctl must be dedicated to this loop.
func (l *SumLoop) SelfSched(ctl *adapt.Controller) { l.selfSchedule(ctl, nil, nil) }

package loopir

import (
	"fmt"

	"repro/internal/adapt"
)

// PairIterBody is a PairLoop body that also receives the local iteration
// index k, so per-iteration parameters (e.g. bond rest lengths stored in an
// aligned array) can be read alongside the pair values.
type PairIterBody func(k int, xi, xj, fi, fj []float64)

// PairLoop is the compiled form of the bonded-force template of Figure 2
// (loop L2): iterations live on their own decomposition (the bond list),
// and each iteration references a *different* data decomposition through
// two flat indirection arrays,
//
//	FORALL k IN bonds
//	  REDUCE(SUM, f(ib(k)), body(x(ib(k)), x(jb(k))))
//	  REDUCE(SUM, f(jb(k)), ...)
//	END FORALL
//
// Both indirection arrays hash into one table with separate stamps, and the
// loop uses a single merged schedule (§3.2.1) — the exact pattern the paper
// optimizes for CHARMM's bonded and non-bonded loops. Redistributing either
// decomposition starts the inspector from a fresh hash table.
type PairLoop struct {
	loopCore
}

// NewPairLoop compiles the two-indirection reduction loop. ia and ib must
// be flat width-1 indirection arrays aligned with the same iteration
// decomposition; their values index the decomposition x and f are aligned
// with (which may differ from the iteration decomposition). flopsPerIter is
// the modeled arithmetic cost of one body invocation.
func (pr *Program) NewPairLoop(ia, ib *IndArray, x, f *RealArray, flopsPerIter int, body PairIterBody) *PairLoop {
	if ia.ptr != nil || ib.ptr != nil || ia.width != 1 || ib.width != 1 {
		panic("loopir: PairLoop requires flat width-1 indirection arrays")
	}
	if ia.dec != ib.dec {
		panic("loopir: PairLoop indirection arrays must share an iteration decomposition")
	}
	if x.dec != f.dec {
		panic("loopir: PairLoop data arrays must share a decomposition")
	}
	if x.width != f.width {
		panic(fmt.Sprintf("loopir: read width %d != reduce width %d", x.width, f.width))
	}
	g := pr.privateSched([]*Decomposition{x.dec, ia.dec}, ia, ib)
	return &PairLoop{loopCore{prog: pr, x: x, f: f, flops: flopsPerIter, pair: body, group: g, mb: 1, lowered: -1}}
}

// Share points the loop at a group schedule covering its data
// decomposition; both indirection arrays join the group. Only legal for
// loops the reuse analysis proved to have identical indirection usage.
func (l *PairLoop) Share(g *SharedSched) {
	if g.decs[0] != l.x.dec {
		panic("loopir: PairLoop shared schedule must cover the data decomposition")
	}
	ia, ib := l.group.members[l.ma], l.group.members[l.mb]
	l.group, l.ma, l.mb, l.lowered = g, g.Add(ia), g.Add(ib), -1
}

// SelfSched enables the adaptive self-scheduling executor mode for the
// loop. kernel is the k-free stolen-iteration body; prm (optional, may be
// nil) is a parameter array aligned with the iteration decomposition whose
// row k is shipped to the thief alongside the pair values, covering bodies
// like the bonded-force loop that read per-iteration constants. Results
// stay bit-identical to the static Execute.
func (l *PairLoop) SelfSched(ctl *adapt.Controller, prm *RealArray, kernel PairParamBody) {
	if prm != nil && prm.dec != l.group.members[l.ma].dec {
		panic("loopir: PairLoop self-scheduling parameters must be aligned with the iteration decomposition")
	}
	l.selfSchedule(ctl, prm, kernel)
}

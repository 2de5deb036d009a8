package loopir

import (
	"fmt"

	"repro/internal/hashtab"
	"repro/internal/schedule"
)

// SharedSched is one communication schedule shared by several compiled
// loops — the target of the program-level schedule-reuse analysis (paper
// §4/§5.3). The fortd optimizer groups FORALLs with identical indirection
// usage over one data decomposition and points them all at one SharedSched,
// so the inspector (hash + schedule build) runs once per adapt cycle
// instead of once per loop.
//
// Members are the distinct indirection arrays the group hashes; each gets
// its own stamp in one hash table, and the group schedule is built merged
// over all stamps. Because the optimizer only groups loops with *identical*
// usage, the merged element set equals every member loop's own set, so
// executing a loop against the group schedule moves exactly the bytes the
// per-loop schedule would — results stay bit-identical to unshared
// lowering. A loop that shares nothing runs its inspector through a
// private group of its own.
type SharedSched struct {
	prog *Program
	// decs[0] is the data decomposition the members' values index (for pair
	// loops the data decomposition, not the iteration one). Redistributing
	// any of decs invalidates every translation.
	decs    []*Decomposition
	decSeen []int64
	private bool
	members []*IndArray
	seen    []int64 // recorded member versions (§5.3 modification records)

	ht          *hashtab.Table
	stamps      []hashtab.Stamp
	locs        [][]int32
	sched       *schedule.Schedule
	inspections int

	// ExecuteFused* scratch, reused across calls.
	cores    []*loopCore
	xbs, fbs [][]float64
	xw, fw   []int
}

// NewSharedSched creates an empty schedule group over the data
// decomposition dec.
func (pr *Program) NewSharedSched(dec *Decomposition) *SharedSched {
	return &SharedSched{prog: pr, decs: []*Decomposition{dec}, decSeen: []int64{0}}
}

// privateSched is the group of a loop that shares none: one member per
// indirection array (no deduplication), rebuilt from a fresh table when any
// of decs is redistributed. Recorded versions start stale because ht is nil.
func (pr *Program) privateSched(decs []*Decomposition, members ...*IndArray) *SharedSched {
	n := len(members)
	return &SharedSched{prog: pr, decs: decs, decSeen: make([]int64, len(decs)), private: true,
		members: members, seen: make([]int64, n), stamps: make([]hashtab.Stamp, n), locs: make([][]int32, n)}
}

// Add registers an indirection array with the group and returns its member
// index. Adding the same array again returns the existing index (loops that
// use the same array share one stamp and one localized-index slice).
func (g *SharedSched) Add(ia *IndArray) int {
	for m, have := range g.members {
		if have == ia {
			return m
		}
	}
	g.members = append(g.members, ia)
	g.seen = append(g.seen, 0)
	g.stamps = append(g.stamps, 0)
	g.locs = append(g.locs, nil)
	g.ht = nil // membership changed: force a full build on next Inspect
	return len(g.members) - 1
}

// Inspections returns how many times the group inspector actually ran.
func (g *SharedSched) Inspections() int { return g.inspections }

// Loc returns the localized indices of member m (valid after Inspect).
func (g *SharedSched) Loc(m int) []int32 { return g.locs[m] }

// Inspect runs the group inspector if any recorded version is stale: one
// hash table, one stamp per member, one merged schedule build — the shared
// preprocessing all member loops then execute against. A redistribution
// (or the first run) starts from a fresh table; a member that merely
// adapted has the stamps cleared and rehashed, reusing cached translations.
// Collective (all ranks reach the same staleness verdict because versions
// advance in collective calls).
func (g *SharedSched) Inspect() {
	fresh := g.ht == nil
	for d, dec := range g.decs {
		fresh = fresh || g.decSeen[d] != dec.version
		g.decSeen[d] = dec.version
	}
	stale := fresh
	for m, ia := range g.members {
		stale = stale || g.seen[m] != ia.version
		g.seen[m] = ia.version
	}
	if !stale {
		return
	}
	if fresh {
		g.ht = g.decs[0].dist.NewHashTable()
		for m := range g.members {
			g.stamps[m] = g.ht.NewStamp()
		}
	} else {
		for _, s := range g.stamps {
			g.ht.ClearStamp(s)
		}
	}
	total := 0
	var include hashtab.Stamp
	for m, ia := range g.members {
		g.locs[m] = g.ht.HashInto(g.locs[m], ia.vals, g.stamps[m])
		include |= g.stamps[m]
		total += len(ia.vals)
	}
	g.sched = schedule.BuildInto(g.sched, g.prog.P, g.ht, include, 0)
	// Generated inspectors drive the hash and schedule calls through
	// runtime descriptors rather than specialized code; the constant-factor
	// interpretation overhead is what separates the Inspector columns of
	// Table 6.
	g.prog.P.ComputeMem(total)
	g.inspections++
}

// ExecuteFusedSum executes a run of SumLoops that share one SharedSched as
// a single communication phase: one fused gather of the distinct read
// arrays, the loop bodies in program order, one fused scatter-add of the
// per-loop contributions, then the per-loop accumulations in program order.
// The communication-fusion legality analysis guarantees no loop reads an
// array an earlier run member reduces into, so values (and float addition
// order) are bit-identical to executing the loops back to back — only the
// message count drops. Members run blocking: a member with Overlap or
// SelfSched set panics. Collective.
func ExecuteFusedSum(loops []*SumLoop) { executeFused(coresOf(loops)) }

// ExecuteFusedPair is ExecuteFusedSum for PairLoops: a run of two-
// indirection reduction loops sharing one SharedSched executes with one
// fused gather and one fused scatter-add. Collective.
func ExecuteFusedPair(loops []*PairLoop) { executeFused(coresOf(loops)) }

// coresOf returns the loops' cores in the first loop's group scratch.
func coresOf[L interface{ core() *loopCore }](loops []L) []*loopCore {
	g := loops[0].core().group
	g.cores = g.cores[:0]
	for _, l := range loops {
		g.cores = append(g.cores, l.core())
	}
	return g.cores
}

func executeFused(loops []*loopCore) {
	g := loops[0].group
	for i, c := range loops {
		if c.overlap || c.ss != nil {
			panic(fmt.Sprintf("loopir: fused loop %d has Overlap or SelfSched set; fused execution is blocking only", i))
		}
		if len(loops) > 1 && (c.group != g || g.private) {
			panic("loopir: fused loops must share one SharedSched")
		}
	}
	if len(loops) == 1 {
		loops[0].Execute()
		return
	}
	for _, c := range loops {
		c.Inspect()
	}
	p := g.prog.P
	nBuf := g.ht.NLocal() + g.ht.NGhosts()

	// Fused gather: one ghost buffer per distinct read array, owned by the
	// first member reading it.
	g.xbs, g.xw, g.fbs, g.fw = g.xbs[:0], g.xw[:0], g.fbs[:0], g.fw[:0]
	for li, c := range loops {
		if firstReader(loops, li) == li {
			c.xb = grow(c.xb, nBuf*c.x.width)
			copy(c.xb, c.x.data)
			g.xbs = append(g.xbs, c.xb)
			g.xw = append(g.xw, c.x.width)
		}
	}
	schedule.GatherWMulti(p, g.sched, g.xbs, g.xw)

	// Loop bodies in program order, each into its own contribution buffer.
	for li, c := range loops {
		c.chargeGuard(p)
		c.fb = grow(c.fb, nBuf*c.x.width)
		clear(c.fb)
		c.run(loops[firstReader(loops, li)].xb, c.fb, 0, len(c.la))
		p.ComputeFlops(c.flops * len(c.la))
		g.fbs = append(g.fbs, c.fb)
		g.fw = append(g.fw, c.x.width)
	}

	// Fused scatter-add, then the sequential accumulations.
	schedule.ScatterWMulti(p, g.sched, g.fbs, g.fw, schedule.OpAdd)
	for _, c := range loops {
		c.accumulate(c.fb)
	}
}

// firstReader returns the index of the first of loops reading the array
// loops[li] reads.
func firstReader(loops []*loopCore, li int) int {
	for e := range loops[:li] {
		if loops[e].x == loops[li].x {
			return e
		}
	}
	return li
}

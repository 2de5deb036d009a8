package loopir

import (
	"repro/internal/comm"
	"repro/internal/schedule"
)

// loopCore is the one inspector/executor form every compiled irregular
// reduction lowers to (§5, Figures 8 and 10; Figure 2's L2): iteration k of
// a flat local iteration space reads x and reduces into f at the local
// slots la[k] and lb[k]. A SumLoop lowers its CSR into it at inspection
// (la[k] is the row of k, lb[k] its localized index, in the CSR's own k
// order, so float summation order is that of the row-by-row loop) and keeps
// the rows as segments; a PairLoop's iterations are one segment each.
// Blocking, split-phase, self-scheduled and fused execution are options on
// this one core.
//
// Split-phase mode starts the gather, runs every interior iteration
// (touching only owned slots) while the frames are in flight, Waits, runs
// the boundary iterations, then starts the scatter-add and finishes the
// owned-slot accumulation while THAT is in flight. Every iteration's
// contribution lands in its accumulator in static iteration order via
// per-iteration delta slots (the same replay the self-scheduled mode uses
// for stolen chunks), and aliased (i == j) iterations — whose two adds
// happen in the body's own internal order — are direct-executed at their
// static position in the apply passes, so results are bit-identical to
// blocking. Virtual time is bit-identical too: the schedule package's
// split-phase contract (no charges between Start and Wait) is observed and
// the flops are charged at their blocking position. The overlap windows are
// real (uncharged) work, instrumented as the measured Phase "overlap".
type loopCore struct {
	prog *Program
	x, f *RealArray
	// flops is the modeled arithmetic cost of one body invocation.
	flops int
	// Exactly one body is set. Passes branch on which once, never per
	// iteration, so the inner loops call the user's body directly.
	sum  PairBody
	pair PairIterBody

	// group runs the inspector (a private one unless Share). la comes from
	// member ma, or from the CSR rows when rows is set; lb from member mb.
	group  *SharedSched
	rows   *IndArray
	ma, mb int

	// The lowered iteration space and the group inspection it was lowered
	// from: segment s is iterations [seg[s], seg[s+1]), and the first
	// csrRows segments are CSR rows the executor reads extents of.
	seg, la, lb []int32
	csrRows     int
	lowered     int
	hoisted     bool

	// Split-phase mode and its boundary iterations, built at lowering.
	overlap bool
	bnd     []int32

	ss     *selfSched // nil: no self-scheduling
	motion comm.Stats // cumulative gather + scatter statistics

	// Persistent gather, reduce and per-iteration delta buffers.
	xb, fb, delta []float64
}

// PhaseOverlap is the measured phase name of the overlap windows (work
// executed while a split-phase collective is in flight).
const PhaseOverlap = "overlap"

// Inspections returns how many times the inspector actually ran — tests use
// it to verify the generated code reuses preprocessing when nothing changed.
// A loop sharing a group schedule reports the group's count.
func (c *loopCore) Inspections() int { return c.group.inspections }

// SetHoisted records that the inspector was hoisted out of the enclosing
// time loop (the hoist analysis proved the indirection arrays unmodified
// across it). The caller is responsible for invoking Inspect at the hoist
// point.
func (c *loopCore) SetHoisted(b bool) { c.hoisted = b }

// Overlap switches the loop between the blocking executor and the
// split-phase executor. Compatible with SelfSched (the gather then overlaps
// the chunk-cutting preamble; the steal protocol itself is unchanged); not
// with ExecuteFusedSum/ExecuteFusedPair, which refuse such loops.
func (c *loopCore) Overlap(on bool) {
	c.overlap, c.lowered = on, -1 // lowering again builds the split
}

// DataMotion returns the cumulative communication statistics of the
// executor's data-motion phase (gather + scatter) across all Execute calls,
// for every executor mode.
func (c *loopCore) DataMotion() comm.Stats { return c.motion }

func (c *loopCore) core() *loopCore { return c }

// Inspect runs the inspector now if the recorded versions are stale (a
// no-op otherwise), then lowers the loop onto the group's fresh localized
// indices. Execute calls it implicitly; exposing it lets drivers time the
// inspector and executor phases separately, as Table 6 reports.
func (c *loopCore) Inspect() {
	g := c.group
	g.Inspect()
	if c.lowered == g.inspections {
		return
	}
	if c.rows != nil {
		c.seg, c.csrRows = c.rows.ptr, len(c.rows.ptr)-1
		c.la = grow(c.la, int(c.seg[c.csrRows]))
		for i := range c.csrRows {
			row := c.la[c.seg[i]:c.seg[i+1]]
			for k := range row {
				row[k] = int32(i)
			}
		}
	} else {
		c.la = g.locs[c.ma]
		c.seg = grow(c.seg, len(c.la)+1)
		for k := range c.seg {
			c.seg[k] = int32(k)
		}
	}
	c.lb = g.locs[c.mb][:len(c.la)]
	if c.overlap && c.ss == nil {
		c.bnd = schedule.SplitFlat(c.bnd, c.la, c.lb, g.ht.NLocal())
	}
	c.lowered = g.inspections
}

// chargeGuard models the per-execution guard evaluation, bounds arrays and
// buffer management of the generated code: the small constant-factor
// overhead visible in Table 6. A hoisted inspector needs no version
// re-checks inside the time loop, halving the bookkeeping.
func (c *loopCore) chargeGuard(p *comm.Proc) {
	n := len(c.seg) - 1
	if !c.hoisted {
		n *= 2
	}
	p.ComputeMem(n)
}

// accumulate adds the owned section of fb into f.
func (c *loopCore) accumulate(fb []float64) {
	addInto(c.f.data, fb)
	c.prog.P.ComputeMem(len(c.f.data))
}

// Execute runs the loop once: inspector (if needed), gather, local
// reduction, scatter-add, in the configured mode. The reductions
// accumulate into f. Collective.
func (c *loopCore) Execute() {
	c.Inspect()
	p, ht, w := c.prog.P, c.group.ht, c.x.width
	c.chargeGuard(p)
	c.xb = grow(c.xb, (ht.NLocal()+ht.NGhosts())*w)
	copy(c.xb, c.x.data)
	c.fb = grow(c.fb, len(c.xb))
	clear(c.fb)
	switch {
	case c.ss != nil:
		c.executeSelfSched(p)
	case c.overlap:
		c.executeOverlap(p)
	default:
		s0 := p.Stats()
		schedule.GatherW(p, c.group.sched, c.xb, w)
		c.motion.Add(p.Stats().Sub(s0))
		c.run(c.xb, c.fb, 0, len(c.la))
		p.ComputeFlops(c.flops * len(c.la))
		s1 := p.Stats()
		schedule.ScatterW(p, c.group.sched, c.fb, w, schedule.OpAdd)
		c.motion.Add(p.Stats().Sub(s1))
	}
	c.accumulate(c.fb)
}

// run executes iterations [lo, hi) in place: the body adds straight into
// fb's slots. The full pass, self-scheduled local chunks and fused members.
func (c *loopCore) run(xb, fb []float64, lo, hi int) {
	w := c.x.width
	la, lb := c.la, c.lb
	if body := c.sum; body != nil {
		// A SumLoop's segments are its rows: walk them row by row, so x and
		// f of a row are sliced once and la is read once per row.
		for k := lo; k < hi; {
			i := int(la[k])
			xi, fi := xb[i*w:(i+1)*w], fb[i*w:(i+1)*w]
			for end := min(hi, int(c.seg[i+1])); k < end; k++ {
				j := int(lb[k]) * w
				body(xi, xb[j:j+w], fi, fb[j:j+w])
			}
		}
		return
	}
	body := c.pair
	for k := lo; k < hi; k++ {
		i, j := int(la[k])*w, int(lb[k])*w
		body(k, xb[i:i+w], xb[j:j+w], fb[i:i+w], fb[j:j+w])
	}
}

// executeOverlap is the split-phase executor (buffers staged).
func (c *loopCore) executeOverlap(p *comm.Proc) {
	w := c.x.width
	nLocal := c.group.ht.NLocal()
	c.delta = grow(c.delta, len(c.la)*2*w)
	s0 := p.Stats()
	gm := schedule.GatherWStart(p, c.group.sched, c.xb, w)
	ov := p.Phase(PhaseOverlap)
	clear(c.delta)
	c.deltas(nLocal, len(c.la), false)
	ov.End()
	gm.Wait()
	c.motion.Add(p.Stats().Sub(s0))
	c.deltas(nLocal, len(c.bnd), true)
	p.ComputeFlops(c.flops * len(c.la))

	// The ghost section must be final before the scatter sends pack it.
	// Remote combines land in Wait, after all local adds — exactly the
	// blocking order.
	c.apply(nLocal, len(c.bnd), true)
	s1 := p.Stats()
	sm := schedule.ScatterWStart(p, c.group.sched, c.fb, w, schedule.OpAdd)
	ov = p.Phase(PhaseOverlap)
	c.apply(nLocal, len(c.la), false)
	ov.End()
	sm.Wait()
	c.motion.Add(p.Stats().Sub(s1))
}

// pick returns the q-th iteration of the interior scan (ghost false: every
// iteration) or of the boundary list (ghost true), its two slots, and
// whether it touches a ghost slot exactly when ghost is set.
func (c *loopCore) pick(q, nLocal int, ghost bool) (k, i, j int, in bool) {
	k = q
	if ghost {
		k = int(c.bnd[q])
	}
	i, j = int(c.la[k]), int(c.lb[k])
	return k, i, j, (i >= nLocal || j >= nLocal) == ghost
}

// deltas runs the interior (ghost false, n = every iteration) or boundary
// (ghost true, n = the boundary list) iterations, each into its own 2w-wide
// slot of the zeroed delta buffer. Aliased iterations are left to the apply
// passes.
func (c *loopCore) deltas(nLocal, n int, ghost bool) {
	w, xb := c.x.width, c.xb
	if body := c.sum; body != nil {
		for q := 0; q < n; q++ {
			k, i, j, in := c.pick(q, nLocal, ghost)
			if in && i != j {
				d := c.delta[k*2*w : (k+1)*2*w]
				body(xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], d[:w], d[w:])
			}
		}
		return
	}
	body := c.pair
	for q := 0; q < n; q++ {
		k, i, j, in := c.pick(q, nLocal, ghost)
		if in && i != j {
			d := c.delta[k*2*w : (k+1)*2*w]
			body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], d[:w], d[w:])
		}
	}
}

// apply adds, in static iteration order, the delta halves that land in
// ghost slots (ghost true: boundary iterations only touch ghosts) or in
// owned slots (ghost false: every iteration), and direct-executes the
// aliased iterations whose slot is of that kind.
func (c *loopCore) apply(nLocal, n int, ghost bool) {
	w := c.x.width
	for q := 0; q < n; q++ {
		k, i, j, _ := c.pick(q, nLocal, ghost)
		if i == j {
			if (i >= nLocal) == ghost {
				c.run(c.xb, c.fb, k, k+1)
			}
			continue
		}
		d := c.delta[k*2*w : (k+1)*2*w]
		if (i >= nLocal) == ghost {
			addInto(c.fb[i*w:(i+1)*w], d[:w])
		}
		if (j >= nLocal) == ghost {
			addInto(c.fb[j*w:(j+1)*w], d[w:])
		}
	}
}

// addInto adds src into dst element-wise.
func addInto(dst, src []float64) {
	for c := range dst {
		dst[c] += src[c]
	}
}

// grow returns s with length n, reusing capacity when possible. Contents
// are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

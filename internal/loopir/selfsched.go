package loopir

import (
	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/schedule"
)

// Steal-protocol tags: user point-to-point tag space (the collective range
// starts at 1<<24; remap uses 110).
const (
	tagStealIn  = 120 // donor -> thief: packed chunk inputs
	tagStealOut = 121 // thief -> donor: packed per-pair contribution deltas
)

// PairParamBody is the k-free kernel a self-scheduled PairLoop runs for
// stolen iterations: prm carries the iteration's packed per-iteration
// parameters (nil when the loop was enabled without a parameter array). It
// must compute exactly the adds the loop's PairIterBody computes for the
// same iteration — the donor ships xi, xj, and prm, so any other
// k-dependence in the body cannot be reproduced on the thief.
type PairParamBody func(prm, xi, xj, fi, fj []float64)

// selfSched holds the per-loop state of the adaptive self-scheduling
// executor mode. The executor cuts the local iteration space into chunks of
// whole segments (rows of a SumLoop, so stealing one never splits a
// reduction group) sized by the controller, has every rank estimate its
// chunk costs from the observed per-unit cost, AllReduces the estimates,
// and executes the deterministic steal plan all ranks derive from them.
// Stolen contributions come back as per-pair deltas the owner replays in
// exact static iteration order, so every REAL array stays bit-identical.
type selfSched struct {
	ctl    *adapt.Controller
	kernel PairParamBody // PairLoop only
	prm    *RealArray    // shipped per-iteration parameters (width 0: none)

	chunkAt    []int32   // chunk c is iterations [chunkAt[c], chunkAt[c+1])
	chunkCost  []float64 // estimated chunk costs fed to the planner
	chunkUnits []int     // iterations per chunk
	stealable  int       // trailing chunks free of aliased iterations

	payload []float64 // donor->thief input staging
}

// costNow is the executor's cost reading for chunk observation: the virtual
// clock by default, the wall clock under comm.RunMeasured (feeding real
// per-rank skew into the controller; the steal plan itself still comes from
// one AllReduce, so ranks never diverge).
func costNow(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow()
	}
	return p.Clock()
}

// selfSchedule enables the mode with ctl; prm (may be nil) is shipped with
// stolen iterations to kernel. Per stolen iteration 2w+pw float64 inputs go
// out and 2w deltas come back on the wire; the donor packs them and replays
// 2w slots, the thief stores 2w.
func (c *loopCore) selfSchedule(ctl *adapt.Controller, prm *RealArray, kernel PairParamBody) {
	if prm == nil {
		prm = &RealArray{} // width 0: nothing shipped
	}
	w, pw := c.x.width, prm.width
	ctl.Configure(c.prog.P.Machine(), c.flops, 8*(4*w+pw), 4*w+pw, 2*w)
	c.ss = &selfSched{ctl: ctl, kernel: kernel, prm: prm}
}

// cut splits the iteration space into chunks of whole segments holding
// about ChunkUnits iterations each, and counts the trailing chunks free of
// aliased iterations. An aliased iteration (i == j) makes fi and fj one
// slot: the static executor applies the body's two adds in the body's own
// internal order, which a delta replay (always fi then fj) cannot
// reproduce bit-exactly — so such chunks are never offered to the planner.
func (ss *selfSched) cut(c *loopCore) {
	target := ss.ctl.ChunkUnits(len(c.la))
	ss.chunkAt = append(ss.chunkAt[:0], 0)
	ss.chunkCost = ss.chunkCost[:0]
	ss.chunkUnits = ss.chunkUnits[:0]
	ss.stealable = 0
	for s, n := 0, len(c.seg)-1; s < n; {
		lo, hi := int(c.seg[s]), int(c.seg[s+1])
		for s++; s < n && hi-lo < target; s++ {
			hi = int(c.seg[s+1])
		}
		ss.stealable++
		for k := lo; k < hi; k++ {
			if c.la[k] == c.lb[k] {
				ss.stealable = 0
			}
		}
		ss.chunkAt = append(ss.chunkAt, int32(hi))
		ss.chunkCost = append(ss.chunkCost, float64(hi-lo)*ss.ctl.CostPerUnit())
		ss.chunkUnits = append(ss.chunkUnits, hi-lo)
	}
}

// executeSelfSched is the self-scheduling executor (buffers staged).
func (c *loopCore) executeSelfSched(p *comm.Proc) {
	ss := c.ss
	w := c.x.width
	s0 := p.Stats()
	// Overlap mode hides the chunk cutting behind the gather: it touches no
	// ghost x value and is uncharged until after Wait (the split-phase
	// no-charge contract), so the virtual timeline is bit-identical to the
	// blocking gather.
	if c.overlap {
		gm := schedule.GatherWStart(p, c.group.sched, c.xb, w)
		ov := p.Phase(PhaseOverlap)
		ss.cut(c)
		ov.End()
		gm.Wait()
	} else {
		schedule.GatherW(p, c.group.sched, c.xb, w)
		ss.cut(c)
	}
	c.motion.Add(p.Stats().Sub(s0))
	// Chunk-bounds bookkeeping: one bound per chunk, plus the CSR row
	// extents read when the segments are rows.
	nChunks := len(ss.chunkUnits)
	p.ComputeMem(c.csrRows + nChunks)

	ss.ctl.Plan(p, ss.chunkCost, ss.chunkUnits, ss.stealable)

	pw, prm := ss.prm.width, ss.prm.data
	// Donor: pack and send stolen chunk inputs up front (sends are
	// non-blocking), in ascending chunk order so each thief's FIFO stream
	// matches the replay order below.
	for _, st := range ss.ctl.Sends() {
		k0, k1 := int(ss.chunkAt[st.Chunk]), int(ss.chunkAt[st.Chunk+1])
		ss.payload = ss.payload[:0]
		for k := k0; k < k1; k++ {
			i, j := int(c.la[k])*w, int(c.lb[k])*w
			ss.payload = append(ss.payload, c.xb[i:i+w]...)
			ss.payload = append(ss.payload, c.xb[j:j+w]...)
			ss.payload = append(ss.payload, prm[k*pw:(k+1)*pw]...)
		}
		p.ComputeMem(len(ss.payload))
		p.SendF64Buf(st.Thief, tagStealIn, ss.payload)
	}

	// Local chunks: everything below the stolen suffix, in static order,
	// with per-chunk cost observation feeding the controller.
	for ch := 0; ch < nChunks-len(ss.ctl.Sends()); ch++ {
		k0, k1 := int(ss.chunkAt[ch]), int(ss.chunkAt[ch+1])
		t0 := costNow(p)
		c.run(c.xb, c.fb, k0, k1)
		p.ComputeFlops(c.flops * (k1 - k0))
		ss.ctl.Observe(k1-k0, costNow(p)-t0)
	}

	// Thief: run stolen chunks (packed rec wide) into zeroed delta slots and
	// send the per-pair deltas back. The body only adds into its fi/fj slots, so a
	// delta computed from zeros is exactly the contribution the static
	// schedule would have added in place.
	rec := 2*w + pw
	for _, st := range ss.ctl.Work() {
		ss.payload = p.RecvF64Into(st.Donor, tagStealIn, ss.payload)
		n := len(ss.payload) / rec
		c.delta = grow(c.delta, 2*n*w)
		clear(c.delta)
		if body := c.sum; body != nil {
			for q := 0; q < n; q++ {
				x, d := ss.payload[q*rec:(q+1)*rec], c.delta[q*2*w:(q+1)*2*w]
				body(x[:w], x[w:2*w], d[:w], d[w:])
			}
		} else {
			for q := 0; q < n; q++ {
				x, d := ss.payload[q*rec:(q+1)*rec], c.delta[q*2*w:(q+1)*2*w]
				ss.kernel(x[2*w:], x[:w], x[w:2*w], d[:w], d[w:])
			}
		}
		p.ComputeFlops(c.flops * n)
		p.ComputeMem(len(ss.payload))
		p.SendF64Buf(st.Donor, tagStealOut, c.delta)
	}

	// Owner: replay stolen contributions after all local chunks, ascending
	// chunk order, one fi/fj add per pair in static iteration order — the
	// same combine order per owner as the static schedule, bit-exact.
	for _, st := range ss.ctl.Sends() {
		k0, k1 := int(ss.chunkAt[st.Chunk]), int(ss.chunkAt[st.Chunk+1])
		c.delta = p.RecvF64Into(st.Thief, tagStealOut, c.delta)
		for k := k0; k < k1; k++ {
			i, j := int(c.la[k])*w, int(c.lb[k])*w
			d := c.delta[(k-k0)*2*w:]
			addInto(c.fb[i:i+w], d[:w])
			addInto(c.fb[j:j+w], d[w:2*w])
		}
		p.ComputeMem(len(c.delta))
	}

	s1 := p.Stats()
	schedule.ScatterW(p, c.group.sched, c.fb, w, schedule.OpAdd)
	c.motion.Add(p.Stats().Sub(s1))
}

package schedule

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
)

// Split-phase data motion: GatherWStart/ScatterWStart run the send half of
// the collective immediately (split-phase sends through comm.SendStart, so
// even the socket writes happen off-thread) and return a Motion handle whose
// Wait runs the receive half. Between Start and Wait the rank is free to
// compute on data the motion does not touch — interior iterations — while
// in-flight frames drain into the transport mailboxes in the background.
//
// Virtual-time contract: the Start functions charge exactly what the
// blocking collectives' send halves charge, and Wait runs the identical
// receive loops. Modeled clocks are therefore bit-identical to the blocking
// collectives PROVIDED the caller issues no virtual-time charges (Compute*,
// sends, receives) between Start and Wait: overlapped real work is charged
// after Wait, at the position the blocking schedule would have charged it.
// The loopir overlap executor follows this discipline; the chaosvet
// split-phase analyzer enforces the buffer-hazard half of it.

// Motion is one split-phase collective in flight. At most one motion can be
// in flight per schedule (the handle lives in the schedule so steady-state
// overlap allocates nothing); Wait is idempotent. The zero value is inert.
type Motion struct {
	p      *comm.Proc
	s      *Schedule
	data   []float64
	width  int
	op     CombineOp
	gather bool
	pend   []comm.Pending
	active bool
}

// start runs the send half of a split-phase transfer and records the
// receive half in the schedule's embedded motion handle. It panics if a
// motion is already in flight (two concurrent motions would interleave on
// the same tag and corrupt both).
func (s *Schedule) start(p *comm.Proc, gather bool, data []float64, width int, op CombineOp) *Motion {
	mo := &s.motion
	if mo.active {
		panic("schedule: a split-phase motion is already in flight on this schedule")
	}
	mo.pend = mo.pend[:0]
	s.send(p, gather, [][]float64{data}, []int{width}, mo)
	mo.p, mo.s, mo.data, mo.width, mo.op, mo.gather, mo.active = p, s, data, width, op, gather, true
	// Yield once after the batch so the rank's sender goroutine
	// (comm.SendStart hands frames to a per-rank queue, not to the transport
	// directly) gets scheduled and pushes the batch onto the wire before the
	// caller's interior computation begins. Without the yield, on a host
	// with few hardware threads the sender may not run until the caller's
	// next blocking point — typically Wait — which would start the wire
	// latency after the interior window instead of underneath it, defeating
	// the overlap.
	if len(mo.pend) > 0 {
		runtime.Gosched()
	}
	return mo
}

// Wait completes the motion: it re-raises any asynchronous send failure,
// then runs the blocking collective's receive half (identical code, so the
// virtual receive accounting is bit-identical to the blocking call). For a
// gather the ghost section of the data array is filled here; for a scatter
// the incoming contributions are combined into the owned section here.
// Calling Wait on a completed (or zero) motion is a no-op.
func (mo *Motion) Wait() {
	if mo == nil || !mo.active {
		return
	}
	p := mo.p
	// Background delivery progressed while the rank computed: the cached
	// receive-path wall sample no longer marks the start of any wait.
	p.InvalidateRecvSample()
	for _, h := range mo.pend {
		h.Wait()
	}
	mo.pend = mo.pend[:0]
	mo.s.recv(p, mo.gather, [][]float64{mo.data}, []int{mo.width}, mo.op)
	mo.p, mo.s, mo.data = nil, nil, nil
	mo.active = false
}

// GatherWStart begins a split-phase GatherW: the send half runs now (packing
// charges and per-message overheads identical to GatherW), the receive half
// runs at Wait. The owned section of data is read here and may be mutated
// after Start returns; the ghost section must not be read or written until
// Wait returns.
func GatherWStart(p *comm.Proc, s *Schedule, data []float64, width int) *Motion {
	return s.start(p, true, data, width, OpReplace)
}

// ScatterWStart begins a split-phase ScatterW: the ghost section of data is
// packed and sent now, the receive-combine into the owned section runs at
// Wait. The ghost section must be final before the call; the owned section
// may still be written between Start and Wait (local contributions finish
// while the wire is busy), because the blocking schedule's remote combines
// land after all local writes anyway.
func ScatterWStart(p *comm.Proc, s *Schedule, data []float64, width int, op CombineOp) *Motion {
	return s.start(p, false, data, width, op)
}

// SplitFlat classifies a flat two-indirection loop for the split-phase
// executor: iteration k touches the slots la[k] and lb[k], and is boundary
// (reads or writes a ghost slot, so executable only after the gather's
// Wait) iff either is >= nLocal. It returns the boundary iterations in
// static order, in dst's storage (dst may be nil); interior iterations need
// no storage — the executor skips boundary ones in place with the same
// ghost test.
//
// Classification charges no virtual time: overlap mode must keep modeled
// clocks bit-identical to blocking mode, so its cost is real (it shows in
// the measured inspector phase) but invisible to the model.
func SplitFlat(dst, la, lb []int32, nLocal int) []int32 {
	if len(la) != len(lb) {
		panic(fmt.Sprintf("schedule: SplitFlat over %d/%d iterations", len(la), len(lb)))
	}
	dst = dst[:0]
	for k := range la {
		if int(la[k]) >= nLocal || int(lb[k]) >= nLocal {
			dst = append(dst, int32(k))
		}
	}
	return dst
}

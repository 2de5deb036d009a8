package schedule

import (
	"fmt"

	"repro/internal/comm"
)

// Fused data transportation: several data arrays moved through ONE schedule
// with one message per peer (per direction) instead of one message per
// array. The communication-vectorization transform of the compiler path
// (paper §4) lowers adjacent FORALLs that share a schedule onto these
// primitives.
//
// Per-buffer semantics are bit-identical to issuing GatherW/ScatterW once
// per array: the wire payload for each peer is the concatenation of the
// per-array payloads in argument order, peers are visited in the same ring
// order, and every transfer, fused or not, runs the one send/receive core
// in schedule.go (a single-array call is its one-array case). Only the
// number of messages (and so the modeled latency) changes.

// checkMulti validates the parallel datas/widths argument lists of every
// transfer.
func (s *Schedule) checkMulti(datas [][]float64, widths []int) {
	if len(datas) != len(widths) {
		panic(fmt.Sprintf("schedule: %d buffers with %d widths", len(datas), len(widths)))
	}
	if len(datas) == 0 {
		panic("schedule: transfer of zero buffers")
	}
	for k, d := range datas {
		if widths[k] < 1 {
			panic(fmt.Sprintf("schedule: buffer %d has width %d", k, widths[k]))
		}
		s.checkLen(len(d), widths[k])
	}
}

// GatherWMulti gathers the ghost sections of several width-component arrays
// through one schedule, sending one fused message per peer. Equivalent to
// calling GatherW(p, s, datas[k], widths[k]) for each k in order, with
// len(datas)× fewer messages. Collective.
func GatherWMulti(p *comm.Proc, s *Schedule, datas [][]float64, widths []int) {
	s.send(p, true, datas, widths, nil)
	s.recv(p, true, datas, widths, OpReplace)
}

// ScatterWMulti scatters the ghost sections of several width-component
// arrays back to their owners through one schedule, combining each with op
// at the destination, with one fused message per peer. Equivalent to
// calling ScatterW(p, s, datas[k], widths[k], op) for each k in order, with
// len(datas)× fewer messages. Collective.
func ScatterWMulti(p *comm.Proc, s *Schedule, datas [][]float64, widths []int, op CombineOp) {
	s.send(p, false, datas, widths, nil)
	s.recv(p, false, datas, widths, op)
}

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
// order, and each array's values are packed, unpacked and combined by
// exactly the loops the single-array primitives use. Only the number of
// messages (and so the modeled latency) changes.

// checkMulti validates the parallel datas/widths argument lists.
func (s *Schedule) checkMulti(datas [][]float64, widths []int) {
	if len(datas) != len(widths) {
		panic(fmt.Sprintf("schedule: %d buffers with %d widths", len(datas), len(widths)))
	}
	if len(datas) == 0 {
		panic("schedule: fused transport of zero buffers")
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
	s.checkMulti(datas, widths)
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		offs := s.SendOffs(dst)
		if len(offs) == 0 {
			continue
		}
		tot := 0
		for _, w := range widths {
			tot += len(offs) * w
		}
		buf := stage(&s.stageS, tot)
		at := 0
		for b, data := range datas {
			width := widths[b]
			sec := buf[at : at+len(offs)*width]
			at += len(sec)
			for i, off := range offs {
				copy(sec[i*width:], data[int(off)*width:int(off+1)*width])
			}
		}
		p.ComputeMem(len(buf))
		p.SendF64Buf(dst, tagGather, buf)
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		slots := s.RecvSlots(src)
		if len(slots) == 0 {
			continue
		}
		tot := 0
		for _, w := range widths {
			tot += len(slots) * w
		}
		vals := p.RecvF64Into(src, tagGather, s.stageR)
		s.stageR = vals
		if len(vals) != tot {
			panic(fmt.Sprintf("schedule: fused gather from %d delivered %d values, want %d", src, len(vals), tot))
		}
		at := 0
		for b, data := range datas {
			width := widths[b]
			sec := vals[at : at+len(slots)*width]
			at += len(sec)
			for i, slot := range slots {
				copy(data[int(slot)*width:int(slot+1)*width], sec[i*width:(i+1)*width])
			}
		}
		p.ComputeMem(len(vals))
	}
}

// ScatterWMulti scatters the ghost sections of several width-component
// arrays back to their owners through one schedule, combining each with op
// at the destination, with one fused message per peer. Equivalent to
// calling ScatterW(p, s, datas[k], widths[k], op) for each k in order, with
// len(datas)× fewer messages. Collective.
func ScatterWMulti(p *comm.Proc, s *Schedule, datas [][]float64, widths []int, op CombineOp) {
	s.checkMulti(datas, widths)
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		slots := s.RecvSlots(dst)
		if len(slots) == 0 {
			continue
		}
		tot := 0
		for _, w := range widths {
			tot += len(slots) * w
		}
		buf := stage(&s.stageS, tot)
		at := 0
		for b, data := range datas {
			width := widths[b]
			sec := buf[at : at+len(slots)*width]
			at += len(sec)
			for i, slot := range slots {
				copy(sec[i*width:], data[int(slot)*width:int(slot+1)*width])
			}
		}
		p.ComputeMem(len(buf))
		p.SendF64Buf(dst, tagScatter, buf)
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		offs := s.SendOffs(src)
		if len(offs) == 0 {
			continue
		}
		tot := 0
		for _, w := range widths {
			tot += len(offs) * w
		}
		vals := p.RecvF64Into(src, tagScatter, s.stageR)
		s.stageR = vals
		if len(vals) != tot {
			panic(fmt.Sprintf("schedule: fused scatter from %d delivered %d values, want %d", src, len(vals), tot))
		}
		at := 0
		for b, data := range datas {
			width := widths[b]
			sec := vals[at : at+len(offs)*width]
			at += len(sec)
			combine(op, data, offs, sec, width)
		}
		p.ComputeMem(len(vals))
	}
}

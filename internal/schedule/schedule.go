// Package schedule implements CHAOS communication schedules (paper §3.2.1)
// and the data transportation primitives that use them.
//
// A schedule for processor p records:
//   - send list: local offsets of elements p must send to each processor;
//   - permutation list: for each source, the local buffer slots where
//     incoming off-processor elements are placed;
//   - send/fetch sizes: message sizes per peer.
//
// Schedules are built from a stamped inspector hash table: Build(ht, include,
// exclude) constructs a regular schedule (include = one stamp), a merged
// schedule (include = union of stamps) or an incremental schedule
// (exclude = stamps of earlier schedules whose data is already resident),
// mirroring CHAOS_schedule in Figure 6 of the paper.
//
// Light-weight schedules (LightSchedule) support reduction-style movement
// where placement order is irrelevant (scatter_append): they carry only
// message sizes, skipping index translation and permutation lists entirely.
package schedule

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/hashtab"
)

// Point-to-point tags used by the transport primitives. They stay below the
// collective tag space reserved by package comm.
const (
	tagGather  = 101
	tagScatter = 102
	tagAppend  = 103
	tagBuild   = 104
)

// Schedule is a regular communication schedule. The send and permutation
// lists are stored flat (CSR): one backing []int32 per direction plus
// per-peer extents, instead of a [][]int32 per direction. The executor pack
// and unpack loops then stream through contiguous memory, and rebuilding a
// schedule in place (BuildInto) reuses the backing arrays, so the adaptive
// inspector stops allocating once warm.
type Schedule struct {
	nprocs int
	// sendOff backs the send lists: local offsets (into the owned section)
	// of elements this processor must send during Gather (and
	// receive-combine during Scatter*). The list for peer r is
	// sendOff[sendIx[2r]:sendIx[2r+1]]; extents are recorded pairwise
	// because the lists are appended in ring arrival order during the build
	// exchange, not in rank order.
	sendOff []int32
	sendIx  []int32
	// recvSlot backs the permutation lists: local buffer slots (>= nLocal,
	// in the ghost section) where arriving elements are placed. The list
	// for peer r is recvSlot[recvPtr[r]:recvPtr[r+1]] (rank-ascending CSR).
	recvSlot []int32
	recvPtr  []int32
	// minLen is 1 + the largest local index referenced, for buffer checks.
	minLen int
	// stageS/stageR are staging scratch for the pack/unpack loops, reused
	// across Gather/Scatter calls so the executor stops allocating after
	// the first iteration. One buffer per direction suffices: packed values
	// are encoded into the send arena before the next peer is packed, and
	// received values are unpacked before the next peer is received. Both
	// die with the schedule, so a rebuild naturally invalidates them.
	stageS []float64
	stageR []float64
	// Build scratch, reused across BuildInto calls: selected hash-table
	// entries, the per-owner request lists (sharing recvPtr's extents), a
	// per-owner fill cursor, and the request-exchange receive buffer.
	selEnts []hashtab.Entry
	reqOff  []int32
	cur     []int32
	recvBuf []int32
	// motion is the schedule's split-phase handle (splitphase.go): at most
	// one motion is in flight per schedule, so embedding it keeps the
	// overlap steady state allocation-free.
	motion Motion
}

// stage returns scratch of exactly n elements backed by *buf, growing the
// backing array only when the schedule sees a larger message than before.
func stage(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// NProcs returns the number of processors the schedule spans.
func (s *Schedule) NProcs() int { return s.nprocs }

// SendOffs returns the send list for rank r: local offsets of the elements
// this processor sends to r. The slice aliases schedule storage; do not
// modify or retain it across a rebuild.
func (s *Schedule) SendOffs(r int) []int32 {
	return s.sendOff[s.sendIx[2*r]:s.sendIx[2*r+1]]
}

// RecvSlots returns the permutation list for rank r: local buffer slots
// where elements arriving from r are placed. The slice aliases schedule
// storage; do not modify or retain it across a rebuild.
func (s *Schedule) RecvSlots(r int) []int32 {
	return s.recvSlot[s.recvPtr[r]:s.recvPtr[r+1]]
}

// SendSize returns the number of elements sent to rank r (the paper's
// send_size array).
func (s *Schedule) SendSize(r int) int { return int(s.sendIx[2*r+1] - s.sendIx[2*r]) }

// FetchSize returns the number of elements fetched from rank r (the paper's
// fetch_size array).
func (s *Schedule) FetchSize(r int) int { return int(s.recvPtr[r+1] - s.recvPtr[r]) }

// TotalFetch returns the total number of off-processor elements this
// schedule gathers.
func (s *Schedule) TotalFetch() int { return len(s.recvSlot) }

// TotalSend returns the total number of elements this schedule sends.
func (s *Schedule) TotalSend() int { return len(s.sendOff) }

// MinLen returns the minimum local buffer length (owned section + ghost
// section) a data array must have to be used with this schedule.
func (s *Schedule) MinLen() int { return s.minLen }

// zeroI32 returns a zeroed slice of n int32 backed by *buf.
func zeroI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	*buf = s
	return s
}

// Build constructs a communication schedule from the hash-table entries
// selected by (include, exclude), as CHAOS_schedule does. It is a collective
// call: every processor must invoke it with the same stamp combination.
//
// The returned schedule gathers/scatters exactly the off-processor elements
// whose stamps match; on-processor entries need no communication and are
// skipped.
func Build(p *comm.Proc, ht *hashtab.Table, include, exclude hashtab.Stamp) *Schedule {
	return BuildInto(nil, p, ht, include, exclude)
}

// BuildInto is Build reusing s's storage (s may be nil). Adaptive codes that
// rebuild a schedule every adapt cycle pass the previous schedule back, so
// steady-state rebuilds perform no heap allocation: the CSR backing arrays,
// the request/reply exchange buffers and the selection scratch are all
// retained across calls. The returned schedule is s (or a fresh one).
func BuildInto(s *Schedule, p *comm.Proc, ht *hashtab.Table, include, exclude hashtab.Stamp) *Schedule {
	if s == nil {
		s = &Schedule{}
	}
	s.selEnts = ht.SelectInto(s.selEnts, include, exclude)
	s.fromEntries(p, ht.NLocal())
	p.ComputeMem(s.TotalSend() + s.TotalFetch())
	return s
}

// fromEntries fills s from the entries in s.selEnts: each off-processor
// entry asks its owner for the element at Offset and lands it in ghost slot
// Local. It buckets the requests per owner and exchanges them; it charges
// no compute of its own, so each caller keeps its own ComputeMem charges.
//
// The request exchange is point-to-point in the exact ring order AllToAll
// uses (send to rank+k, receive from rank-k, empty messages included), so
// the modeled message counts, wire bytes and virtual times are identical to
// the collective form.
func (s *Schedule) fromEntries(p *comm.Proc, nLocal int) {
	s.nprocs = p.Size()
	s.minLen = nLocal

	// Request lists per owner: the owner-local offsets we need, and the
	// ghost slots they map to here. Count per owner, prefix-sum, then fill
	// — the CSR build. reqOff shares recvPtr's extents with recvSlot.
	ptr := zeroI32(&s.recvPtr, p.Size()+1)
	for _, e := range s.selEnts {
		if int(e.Owner) != p.Rank() {
			ptr[e.Owner+1]++
		}
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	nFetch := int(ptr[p.Size()])
	recvSlot := zeroI32(&s.recvSlot, nFetch)
	reqOff := zeroI32(&s.reqOff, nFetch)
	cur := zeroI32(&s.cur, p.Size())
	for _, e := range s.selEnts {
		if int(e.Owner) == p.Rank() {
			continue
		}
		k := ptr[e.Owner] + cur[e.Owner]
		cur[e.Owner]++
		recvSlot[k] = e.Local
		reqOff[k] = e.Offset
		if int(e.Local)+1 > s.minLen {
			s.minLen = int(e.Local) + 1
		}
	}

	// Exchange requests; what arrives from r is my send list to r. Sends
	// stage through the Proc arena, receives decode into schedule scratch
	// and append to the flat send-list backing in arrival order.
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		p.SendI32Buf(dst, tagBuild, reqOff[ptr[dst]:ptr[dst+1]])
	}
	sendIx := zeroI32(&s.sendIx, 2*p.Size())
	s.sendOff = s.sendOff[:0]
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		s.recvBuf = p.RecvI32Into(src, tagBuild, s.recvBuf)
		sendIx[2*src] = int32(len(s.sendOff))
		s.sendOff = append(s.sendOff, s.recvBuf...)
		sendIx[2*src+1] = int32(len(s.sendOff))
	}
}

// FromTranslated builds a schedule directly from already-translated
// references: reference k lives on owners[k] at local offset offsets[k].
// References must be distinct (no duplicate removal is performed — callers
// with possibly-duplicated references should go through a hash table).
// Returns the schedule plus the localized index of each reference
// (its offset if owned, or nLocal+ghostSlot). Collective.
//
// This is the index-translation path the paper's "regular schedules" row in
// Table 4 pays on every DSMC time step: a full schedule with permutation
// lists is constructed for a data access pattern that changes each step.
func FromTranslated(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32) {
	if len(owners) != len(offsets) {
		panic(fmt.Sprintf("schedule: %d owners but %d offsets", len(owners), len(offsets)))
	}
	s := &Schedule{selEnts: make([]hashtab.Entry, 0, len(owners))}
	loc := make([]int32, len(owners))
	for k, o := range owners {
		if int(o) == p.Rank() {
			loc[k] = offsets[k]
			continue
		}
		loc[k] = int32(nLocal + len(s.selEnts))
		s.selEnts = append(s.selEnts, hashtab.Entry{Owner: o, Offset: offsets[k], Local: loc[k]})
	}
	p.ComputeMem(len(owners))
	s.fromEntries(p, nLocal)
	p.ComputeMem(s.TotalSend())
	return s, loc
}

// checkLen panics if data is too short for the schedule.
func (s *Schedule) checkLen(n, width int) {
	if n < s.minLen*width {
		panic(fmt.Sprintf("schedule: buffer of %d elements too short, need %d (width %d)", n, s.minLen*width, width))
	}
}

// Gather fetches the off-processor elements named by the schedule into the
// ghost section of data: after the call, data[slot] holds the owner's value
// for every slot in the permutation lists. The owned section is read, the
// ghost section written. Collective.
func Gather(p *comm.Proc, s *Schedule, data []float64) {
	GatherW(p, s, data, 1)
}

// GatherW is Gather for arrays with `width` float64 components per element
// (stored row-major: element i occupies data[i*width : (i+1)*width]).
// Steady-state calls are allocation-free: packing stages through
// schedule-owned scratch, the wire bytes through the Proc send arena, and
// unpacking through scratch grown on the first call.
func GatherW(p *comm.Proc, s *Schedule, data []float64, width int) {
	s.send(p, true, [][]float64{data}, []int{width}, nil)
	s.recv(p, true, [][]float64{data}, []int{width}, OpReplace)
}

// CombineOp selects how Scatter combines incoming values with resident ones.
type CombineOp int

// Scatter combine operations.
const (
	OpReplace CombineOp = iota
	OpAdd
	OpMax
	OpMin
)

// Scatter pushes ghost-section values back to their owners, combining with
// op at the destination (the reverse of Gather). With OpAdd this implements
// the irregular reduction x(ia(i)) = x(ia(i)) + ... across processors.
// Collective.
func Scatter(p *comm.Proc, s *Schedule, data []float64, op CombineOp) {
	ScatterW(p, s, data, 1, op)
}

// ScatterW is Scatter for width-component elements. Like GatherW it is
// allocation-free in steady state, and the combine switch is resolved once
// per message rather than once per element.
func ScatterW(p *comm.Proc, s *Schedule, data []float64, width int, op CombineOp) {
	s.send(p, false, [][]float64{data}, []int{width}, nil)
	s.recv(p, false, [][]float64{data}, []int{width}, op)
}

// rows returns the row list a transfer with peer r packs from (out) or
// unpacks into (!out). A gather sends the send lists and fills the
// permutation lists; a scatter is the same transfer with the two swapped.
func (s *Schedule) rows(gather, out bool, r int) []int32 {
	if gather == out {
		return s.SendOffs(r)
	}
	return s.RecvSlots(r)
}

// shape returns a transfer's message tag and its packed values per row.
func shape(gather bool, widths []int) (tag, row int) {
	tag = tagScatter
	if gather {
		tag = tagGather
	}
	for _, w := range widths {
		row += w
	}
	return tag, row
}

// send is the send half of every Schedule transfer: blocking, fused and
// split-phase gathers and scatters. It validates the arrays, then visits
// peers in ring order; for each peer with rows to send it packs every
// array's rows into one message, array after array in argument order, and
// charges and sends it. With a non-nil motion the sends are split-phase and
// their handles are recorded in mo.
func (s *Schedule) send(p *comm.Proc, gather bool, datas [][]float64, widths []int, mo *Motion) {
	s.checkMulti(datas, widths)
	tag, row := shape(gather, widths)
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		rows := s.rows(gather, true, dst)
		if len(rows) == 0 {
			continue
		}
		buf := stage(&s.stageS, len(rows)*row)
		// Rows are a few values wide, so an element loop beats a memmove
		// call per row.
		at := 0
		for b, data := range datas {
			w := widths[b]
			for _, r := range rows {
				for _, v := range data[int(r)*w : int(r+1)*w] {
					buf[at] = v
					at++
				}
			}
		}
		p.ComputeMem(len(buf))
		if mo != nil {
			mo.pend = append(mo.pend, p.SendF64BufStart(dst, tag, buf))
		} else {
			p.SendF64Buf(dst, tag, buf)
		}
	}
}

// recv is the receive half of every Schedule transfer: ring-order receives,
// each message split per array and combined into it under op (a gather
// combines with OpReplace). Shared by the blocking paths and Motion.Wait,
// so all modes charge identical virtual sequences.
func (s *Schedule) recv(p *comm.Proc, gather bool, datas [][]float64, widths []int, op CombineOp) {
	tag, row := shape(gather, widths)
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		rows := s.rows(gather, false, src)
		if len(rows) == 0 {
			continue
		}
		vals := p.RecvF64Into(src, tag, s.stageR)
		s.stageR = vals
		if len(vals) != len(rows)*row {
			panic(fmt.Sprintf("schedule: transfer from %d delivered %d values, want %d", src, len(vals), len(rows)*row))
		}
		at := 0
		for b, data := range datas {
			n := len(rows) * widths[b]
			combine(op, data, rows, vals[at:at+n], widths[b])
			at += n
		}
		p.ComputeMem(len(vals))
	}
}

// combine merges one received message into data under op, with the op
// dispatched once per message (branch per message, not per element).
func combine(op CombineOp, data []float64, offs []int32, vals []float64, width int) {
	switch op {
	case OpReplace:
		for i, off := range offs {
			copy(data[int(off)*width:int(off+1)*width], vals[i*width:(i+1)*width])
		}
	case OpAdd:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	case OpMax:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				if src[j] > dst[j] {
					dst[j] = src[j]
				}
			}
		}
	case OpMin:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				if src[j] < dst[j] {
					dst[j] = src[j]
				}
			}
		}
	default:
		panic("schedule: unknown combine op")
	}
}

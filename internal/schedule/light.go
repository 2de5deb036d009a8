package schedule

import (
	"encoding/binary"
	"fmt"

	"repro/internal/comm"
)

// LightSchedule is a light-weight communication schedule (paper §3.2.1):
// only per-peer message sizes, no index translation, no permutation list.
// It supports scatter_append, the data transportation primitive for
// reduction-style movement where placement order does not matter (the
// REDUCE(APPEND, ...) intrinsic of §5.2.1).
type LightSchedule struct {
	nprocs     int
	self       int
	SendCounts []int32
	RecvCounts []int32
	// packF/packI are per-destination packing scratch reused across
	// Move calls, so repeated appends with one schedule stop allocating.
	packF [][]float64
	packI [][]int32
}

// BuildLight constructs a light-weight schedule from per-item destination
// processors. Items destined to the calling processor are counted in
// SendCounts[self] but never travel. Collective: a single pre-sized count
// exchange — every peer's 4-byte count is encoded into one flat buffer and
// the per-peer messages are slices of it, so the exchange costs one
// allocation instead of one per peer (the wire traffic is unchanged: P-1
// one-count messages).
func BuildLight(p *comm.Proc, dest []int32) *LightSchedule {
	ls := &LightSchedule{
		nprocs:     p.Size(),
		self:       p.Rank(),
		SendCounts: make([]int32, p.Size()),
		RecvCounts: make([]int32, p.Size()),
	}
	for _, d := range dest {
		if d < 0 || int(d) >= p.Size() {
			panic(fmt.Sprintf("schedule: append destination %d out of range [0,%d)", d, p.Size()))
		}
		ls.SendCounts[d]++
	}
	p.ComputeMem(len(dest))
	bufs := make([][]byte, p.Size())
	flat := make([]byte, 4*p.Size())
	for r := range bufs {
		if r == p.Rank() {
			continue
		}
		binary.LittleEndian.PutUint32(flat[4*r:], uint32(ls.SendCounts[r]))
		bufs[r] = flat[4*r : 4*r+4 : 4*r+4]
	}
	for r, b := range p.AllToAll(bufs) {
		if r == p.Rank() {
			ls.RecvCounts[r] = ls.SendCounts[r]
			continue
		}
		ls.RecvCounts[r] = int32(binary.LittleEndian.Uint32(b))
	}
	return ls
}

// TotalRecv returns the number of items this processor will receive or keep
// during MoveF64 (including its own).
func (ls *LightSchedule) TotalRecv() int {
	n := 0
	for _, c := range ls.RecvCounts {
		n += int(c)
	}
	return n
}

// TotalSend returns the number of items actually leaving this processor
// (destinations other than itself).
func (ls *LightSchedule) TotalSend() int {
	n := 0
	for r, c := range ls.SendCounts {
		if r != ls.self {
			n += int(c)
		}
	}
	return n
}

// grow returns scratch of length 0 and capacity >= n backed by *buf.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	*buf = (*buf)[:0]
	return *buf
}

// MoveI32 is MoveF64 for int32 payloads. When MoveF64 and MoveI32 are
// called with the same dest slice, received items correspond position-wise
// across the two calls (both pack and append in identical order), so an
// item's components may be split across one int and one float move.
func (ls *LightSchedule) MoveI32(p *comm.Proc, dest []int32, items []int32, width int) []int32 {
	return moveInto(ls, p, dest, items, width, nil, &ls.packI, p.SendI32Buf, p.RecvI32Into)
}

// MoveF64 performs scatter_append: item i (the width float64 values
// items[i*width:(i+1)*width]) is delivered to processor dest[i] and appended
// to its result in arrival order (own items first, then by increasing rank
// distance). dest must be the same slice contents used for BuildLight.
// Collective. The result has ls.TotalRecv() items.
func (ls *LightSchedule) MoveF64(p *comm.Proc, dest []int32, items []float64, width int) []float64 {
	return ls.MoveF64Into(p, dest, items, width, nil)
}

// MoveF64Into is MoveF64 appending into out[:0]: callers that keep the
// returned slice and feed it back on the next time step make the append
// allocation-free in steady state. out may be nil.
func (ls *LightSchedule) MoveF64Into(p *comm.Proc, dest []int32, items []float64, width int, out []float64) []float64 {
	return moveInto(ls, p, dest, items, width, out, &ls.packF, p.SendF64Buf, p.RecvF64Into)
}

// moveInto is the scatter_append body behind MoveF64Into and MoveI32: it
// packs items per destination into *pack (per-destination scratch reused
// across calls), keeps its own items, sends the rest with send in ring
// order and appends what recv delivers into out[:0].
func moveInto[T any](ls *LightSchedule, p *comm.Proc, dest []int32, items []T, width int, out []T, pack *[][]T,
	send func(to, tag int, xs []T), recv func(from, tag int, dst []T) []T) []T {
	if len(items) != len(dest)*width {
		panic(fmt.Sprintf("schedule: move of %d values for %d items of width %d", len(items), len(dest), width))
	}
	if *pack == nil {
		*pack = make([][]T, ls.nprocs)
	}
	packed := *pack
	for r := range packed {
		packed[r] = grow(&packed[r], int(ls.SendCounts[r])*width)
	}
	for i, d := range dest {
		packed[d] = append(packed[d], items[i*width:(i+1)*width]...)
	}
	p.ComputeMem(len(items))

	out = grow(&out, ls.TotalRecv()*width)
	out = append(out, packed[p.Rank()]...) // keep own items, in order
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		if len(packed[dst]) > 0 {
			send(dst, tagAppend, packed[dst])
		}
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		if ls.RecvCounts[src] == 0 || src == p.Rank() {
			continue
		}
		pos := len(out)
		want := int(ls.RecvCounts[src]) * width
		vals := recv(src, tagAppend, out[pos:pos+want])
		if len(vals) != want {
			panic(fmt.Sprintf("schedule: append from %d delivered %d values, want %d", src, len(vals), want))
		}
		out = out[:pos+want]
	}
	p.ComputeMem(ls.TotalRecv() * width)
	return out
}

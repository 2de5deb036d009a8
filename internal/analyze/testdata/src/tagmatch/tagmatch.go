// Package tagmatch is a chaosvet fixture for the tag-match analyzer:
// constant point-to-point tags that only one side of the protocol uses.
package tagmatch

import "repro/internal/comm"

const (
	tagPing   = 7
	tagPong   = 8
	tagOrphan = 99 // sent below but never received anywhere in the package
)

// BadOneSidedTag sends tag 99; no Recv in this package asks for it, so the
// intended receiver blocks forever on whatever tag it does ask for.
func BadOneSidedTag(p *comm.Proc) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	p.Send(right, tagOrphan, []byte{1}) // want:tag-match
}

// BadOrphanRecv waits on tag 500, which nothing in the package sends.
func BadOrphanRecv(p *comm.Proc) []byte {
	if p.Size() < 2 {
		return nil
	}
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	return p.Recv(left, 500) // want:tag-match
}

// GoodPairedTags is a matched ring exchange: every constant tag appears on
// both sides.
func GoodPairedTags(p *comm.Proc) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.SendF64(right, tagPing, []float64{1})
	vals := p.RecvF64(left, tagPing)
	p.SendF64(left, tagPong, vals)
	p.RecvF64(right, tagPong)
}

// GoodVariableTag uses a computed tag; the analyzer only judges constants.
func GoodVariableTag(p *comm.Proc, tag int) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.Send(right, tag, nil)
	p.Recv(left, tag)
}

// BadOneSidedArenaTags pairs the arena and split-phase forms with
// mismatched tags: 41 is started but received as 42.
func BadOneSidedArenaTags(p *comm.Proc, buf []float64) []float64 {
	if p.Size() < 2 {
		return nil
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.SendF64BufStart(right, 41, buf).Wait() // want:tag-match
	return p.RecvF64Into(left, 42, buf)      // want:tag-match
}

// GoodPairedArenaTags is a matched exchange through the arena forms.
func GoodPairedArenaTags(p *comm.Proc, idx []int32) []int32 {
	if p.Size() < 2 {
		return nil
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.SendI32Buf(right, tagPing, idx)
	return p.RecvI32Into(left, tagPing, idx)
}

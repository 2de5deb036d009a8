package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/comm"
)

// span is one traced interval on one rank. Start and End are seconds since
// the tracer's epoch; Parent is the ID of the enclosing span on the same
// rank (-1 for a rank body). A span of kind "total" is a phase total read
// back from comm.Report.Measured after the run: it has no real start, so it
// is laid out from its rank body's start and is never a parent.
type span struct {
	ID     int     `json:"id"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory. All methods are safe
// on a nil *tracer and do nothing, so untraced runs take the same code path
// at the cost of a nil check per call site. A mutex guards everything:
// split-phase sends reach the transport from a per-rank sender goroutine,
// not only from the rank's own goroutine.
type tracer struct {
	run   int
	clock *comm.WallClock

	mu    sync.Mutex
	spans []span
	open  [][]int // per rank: IDs of open spans, innermost last

	// Heap allocations across kernel-remap's Execute calls, written by
	// rank 0 only and read after the run.
	execMallocs uint64
	execCalls   int
}

func newTracer(run, ranks int) *tracer {
	return &tracer{run: run, clock: comm.NewWallClock(), open: make([][]int, ranks)}
}

func (t *tracer) now() float64 { return t.clock.Now() }

// begin opens a span on rank as a child of the rank's innermost open span.
func (t *tracer) begin(rank int, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if o := t.open[rank]; len(o) > 0 {
		parent = o[len(o)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Run: t.run, Name: name, Kind: "call", Rank: rank, Start: start, Parent: parent})
	t.open[rank] = append(t.open[rank], id)
	return id
}

// end closes span id. It is removed from its rank's open list wherever it
// sits, because a sender goroutine's span may close while the rank has
// opened another one on top of it.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = stop
	o := t.open[s.Rank]
	for i := len(o) - 1; i >= 0; i-- {
		if o[i] == id {
			t.open[s.Rank] = append(o[:i], o[i+1:]...)
			break
		}
	}
}

// addTotals records one rank's phase totals (seconds) as spans of kind
// "total" under that rank's body span.
func (t *tracer) addTotals(rank int, prefix string, totals map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := -1
	for _, s := range t.spans {
		if s.Rank == rank && s.Name == "rank" {
			root = s.ID
		}
	}
	start := 0.0
	if root >= 0 {
		start = t.spans[root].Start
	}
	for _, name := range sortedKeys(totals) {
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Run: t.run, Name: prefix + name, Kind: "total", Rank: rank,
			Start: start, End: start + totals[name], Parent: root})
	}
}

// durations returns the durations of every call span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Kind == "call" && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// checkSums verifies the layering of one run's spans against the program's
// own per-rank wall time: on every rank, the self time of all call spans
// below the rank body (each span's duration minus what its children cover)
// and, separately, the sum of the phase totals must not exceed
// Measured.Wall. A phase charged twice, or a span that outlives the rank,
// breaks it. slack absorbs clock-reading jitter between the two clocks.
func (t *tracer) checkSums(walls []float64) (rank int, got, wall float64, ok bool) {
	const slack = 1e-3
	self := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Kind != "call" {
			continue
		}
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for r, w := range walls {
		calls, totals := 0.0, 0.0
		for _, s := range t.spans {
			switch {
			case s.Rank != r:
			case s.Kind == "total":
				totals += s.dur()
			case s.Parent >= 0:
				calls += self[s.ID]
			}
		}
		if calls > w*(1+slack)+slack {
			return r, calls, w, false
		}
		if totals > w*(1+slack)+slack {
			return r, totals, w, false
		}
	}
	return 0, 0, 0, true
}

// writeSpans writes the spans of every traced run to path as one JSON
// array.
func writeSpans(path string, runs []*tracer) error {
	var all []span
	for _, t := range runs {
		all = append(all, t.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedTransport decorates a transport with a span around every Send and
// Recv. It forwards the optional comm interfaces the SPMD runner probes for
// (Poisoner, LinkPoisoner, RankObserver), exactly as comm.DelayTransport
// does: without Poison a rank that panics would leave its peers blocked in
// Recv forever instead of failing the run.
type tracedTransport struct {
	inner comm.Transport
	t     *tracer
}

func (tt *tracedTransport) Send(m comm.Message) {
	id := tt.t.begin(m.From, "comm.send")
	defer tt.t.end(id)
	tt.inner.Send(m)
}

func (tt *tracedTransport) Recv(self, from, tag int) comm.Message {
	id := tt.t.begin(self, "comm.recv")
	defer tt.t.end(id)
	return tt.inner.Recv(self, from, tag)
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

func (tt *tracedTransport) Poison() {
	if po, ok := tt.inner.(comm.Poisoner); ok {
		po.Poison()
	}
}

func (tt *tracedTransport) PoisonLink(to, from int) {
	if lp, ok := tt.inner.(comm.LinkPoisoner); ok {
		lp.PoisonLink(to, from)
	}
}

func (tt *tracedTransport) RankDone(rank int) {
	if ro, ok := tt.inner.(comm.RankObserver); ok {
		ro.RankDone(rank)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
)

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, tiny: true, trace: trace, minRounds: 1, traceDir: t.TempDir()}
}

func tinyBench(t *testing.T, workload string) *bench {
	t.Helper()
	w, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{inst: w.make(7, true), ranks: 2, log: io.Discard, first: map[runKind]*runResult{}}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricPrinted runs each workload at tiny size through the same
// entry point the command uses and checks that the last line carries
// exactly the metrics BENCHMARK.json declares, with their units, that the
// readable lines carry the host metadata and failed_frac, and that nothing
// failed.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			if err := benchmark(&out, io.Discard, tinyOptions(t, w.Name, trace)); err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" = ") {
					t.Errorf("%s trace=%t: no readable line for %s", w.Name, trace, m.Name)
				}
			}
			text := strings.Join(lines[:len(lines)-1], "\n")
			for _, meta := range []string{"nproc=", "GOMAXPROCS=", "go=go", "seed=7", "ranks=2", "baseline_ranks=1"} {
				if !strings.Contains(text, meta) {
					t.Errorf("%s trace=%t: host metadata %q missing", w.Name, trace, meta)
				}
			}
			if !trace && !strings.Contains(text, "metric failed_frac = 0/") {
				t.Errorf("%s: failed_frac line missing", w.Name)
			}
		}
	}
}

// runWithin runs f and fails the test if it does not return within d.
func runWithin(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("run did not return within %v", d)
	}
}

// TestPanickingRankCountsAsFailure: a rank that panics inside a traced run
// must end the run (the decorator forwards Poison, so its peer blocked in a
// collective fails instead of hanging) and count toward failed_frac.
func TestPanickingRankCountsAsFailure(t *testing.T) {
	b := tinyBench(t, "charmm-md")
	body := b.inst.body
	b.inst.body = func(p *comm.Proc, tr *tracer, setupOnly bool) rankOut {
		if p.Rank() == 1 {
			panic("injected failure")
		}
		return body(p, tr, setupOnly)
	}
	k := runKind{ranks: 2}
	runWithin(t, time.Minute, func() {
		if r := b.run(k, newTracer(0, 2)); r != nil {
			t.Error("a run with a panicking rank passed")
		}
	})
	if b.attempted != 1 || b.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1 and 1", b.attempted, b.failed)
	}
	if !strings.Contains(b.errs[0], "injected failure") {
		t.Errorf("failure does not name the panic: %s", b.errs[0])
	}
}

// TestPerturbedChecksumFails: a checksum outside the reference tolerance is
// a failed run; one inside it is not.
func TestPerturbedChecksumFails(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		fail  bool
	}{{1 + 1e-6, true}, {1 + 1e-12, false}} {
		b := tinyBench(t, "dsmc-drift")
		body := b.inst.body
		b.inst.body = func(p *comm.Proc, tr *tracer, setupOnly bool) rankOut {
			out := body(p, tr, setupOnly)
			out.checksum *= tc.scale
			return out
		}
		r := b.run(runKind{ranks: 2}, nil)
		if (r == nil) != tc.fail || (b.failed == 1) != tc.fail {
			t.Errorf("checksum scaled by %v: failed=%d, want failure %t", tc.scale, b.failed, tc.fail)
		}
	}
}

// TestCountsRepeatAndSpansFitWall: the counts the benchmark treats as exact
// repeat across two runs of every workload, and no rank's spans (self
// time of the calls, or the phase totals) sum to more than its
// Measured.Wall.
func TestCountsRepeatAndSpansFitWall(t *testing.T) {
	for _, w := range workloads {
		b := tinyBench(t, w.name)
		k := runKind{ranks: 2}
		var rs [2]*runResult
		for i := range rs {
			tr := newTracer(i, 2)
			r, err := b.measure(k, tr)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := b.check(k, r, tr); err != nil {
				t.Fatalf("%s run %d: %v", w.name, i, err)
			}
			rs[i] = r
		}
		a, c := rs[0], rs[1]
		if a.rep.MaxClock() != c.rep.MaxClock() || a.rep.TotalMsgsSent() != c.rep.TotalMsgsSent() ||
			a.rep.TotalBytesSent() != c.rep.TotalBytesSent() || a.out.remaps != c.out.remaps ||
			a.out.inspections != c.out.inspections {
			t.Errorf("%s: counts differ between runs: %v/%v vsec, %d/%d msgs, %d/%d bytes, %d/%d remaps, %d/%d inspections", w.name,
				a.rep.MaxClock(), c.rep.MaxClock(), a.rep.TotalMsgsSent(), c.rep.TotalMsgsSent(),
				a.rep.TotalBytesSent(), c.rep.TotalBytesSent(), a.out.remaps, c.out.remaps, a.out.inspections, c.out.inspections)
		}
		if a.rep.TotalMsgsSent() == 0 {
			t.Errorf("%s: no messages counted", w.name)
		}
		switch w.name {
		case "dsmc-drift":
			if a.out.remaps == 0 {
				t.Errorf("dsmc-drift: no periodic remap counted")
			}
		case "kernel-remap":
			if a.out.inspections < 2 {
				t.Errorf("kernel-remap: %d inspections, want the first plus one per remap", a.out.inspections)
			}
		}
	}
}

// TestSpanSumsCatchDoubleCharging: phase totals that add up to more than
// the rank's wall — what reading loopir's measured "executor" phase next to
// a caller's timer produces — fail the check, as do overlapping sibling
// call spans; properly nested spans pass.
func TestSpanSumsCatchDoubleCharging(t *testing.T) {
	mk := func(spans ...span) *tracer {
		tr := newTracer(0, 1)
		for i := range spans {
			spans[i].ID = i
			if spans[i].Kind == "" {
				spans[i].Kind = "call"
			}
		}
		tr.spans = spans
		return tr
	}
	nested := mk(
		span{Name: "rank", Start: 0, End: 1, Parent: -1},
		span{Name: "loopir.execute", Start: 0.1, End: 0.9, Parent: 0},
		span{Name: "comm.recv", Start: 0.2, End: 0.5, Parent: 1},
		span{Name: "charmm.executor", Kind: "total", Start: 0, End: 0.9, Parent: 0},
	)
	if _, _, _, ok := nested.checkSums([]float64{1}); !ok {
		t.Error("nested spans inside the wall rejected")
	}
	twice := mk(
		span{Name: "rank", Start: 0, End: 1, Parent: -1},
		span{Name: "executor", Kind: "total", Start: 0, End: 0.7, Parent: 0},
		span{Name: "executor-again", Kind: "total", Start: 0, End: 0.7, Parent: 0},
	)
	if _, _, _, ok := twice.checkSums([]float64{1}); ok {
		t.Error("phase totals summing past the wall accepted")
	}
	overlap := mk(
		span{Name: "rank", Start: 0, End: 1, Parent: -1},
		span{Name: "a", Start: 0, End: 0.8, Parent: 0},
		span{Name: "b", Start: 0.1, End: 0.9, Parent: 0},
	)
	if _, _, _, ok := overlap.checkSums([]float64{1}); ok {
		t.Error("sibling spans summing past the wall accepted")
	}
}

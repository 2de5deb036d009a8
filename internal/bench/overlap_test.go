package bench

import (
	"testing"
)

// TestOverlapHidesCommOnMultiRank pins the BENCH_overlap acceptance
// property at quick scale: with two or more ranks over a wire with real
// latency (comm.DelayTransport), the split-phase executor of the irregular
// reduction kernel beats the blocking executor's measured wall time, the
// measured communication wait shrinks, and the modeled virtual makespan
// stays bit-identical (RunOverlapScenario panics on divergence).
func TestOverlapHidesCommOnMultiRank(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion: race-detector instrumentation swamps the overlap window")
	}
	sc := Quick()
	kernelScenario := overlapScenarios[0]
	if got := kernelScenario.name; got != "kernel" {
		t.Fatalf("scenario 0 is %q, want kernel", got)
	}
	const n = 2
	const reps = 5
	r := RunOverlapScenario(sc, kernelScenario.body, n, reps)
	t.Logf("blocking wall %.4fs comm %.4fs | overlap wall %.4fs comm %.4fs | hidden %.0f%% | modeled %.3f vsec",
		r.BlockWall, r.BlockComm, r.OverWall, r.OverComm, 100*r.HiddenFrac(), r.BlockVsec)
	if r.OverWall >= r.BlockWall {
		t.Errorf("overlap wall %.4fs did not beat blocking %.4fs at %d ranks", r.OverWall, r.BlockWall, n)
	}
	if r.OverComm >= r.BlockComm {
		t.Errorf("overlap comm wait %.4fs did not shrink from blocking %.4fs", r.OverComm, r.BlockComm)
	}
	if r.HiddenFrac() <= 0 {
		t.Error("overlap hid no communication wait")
	}
}

// TestOverlapTableShape checks the BENCH_overlap generator fills every row
// at a tiny scale without tripping the modeled-parity panic.
func TestOverlapTableShape(t *testing.T) {
	sc := Quick()
	sc.WallProcs = []int{1, 2}
	sc.WallReps = 1
	tab := Overlap(sc)
	want := len(sc.WallProcs)
	if len(tab.Rows) != want {
		t.Fatalf("BENCH_overlap has %d rows, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		for i, cell := range row {
			if cell == "" {
				t.Errorf("row %v: empty cell %d", row, i)
			}
		}
	}
}

package dsmc

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// gatherMols runs the simulation on nprocs ranks and returns the final
// molecule records of every rank concatenated, plus the per-rank counts.
func gatherMols(t *testing.T, nprocs int, cfg Config) ([]float64, []int) {
	t.Helper()
	perRank := make([][]float64, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		perRank[p.Rank()] = RunKeepMols(p, cfg)
	})
	var all []float64
	counts := make([]int, nprocs)
	for r, m := range perRank {
		all = append(all, m...)
		counts[r] = len(m) / recordWidth
	}
	return all, counts
}

func expectBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// skewedConfig is a small version of the Table 5 scenario: a drifting
// molecule concentration with periodic RCB remapping, so elastic restore
// has real load imbalance to repair.
func skewedConfig() Config {
	cfg := Default2D(12)
	cfg.NMols = 600
	cfg.Steps = 8
	cfg.InitSlabFrac = 0.5
	cfg.Adapt = "periodic:4"
	cfg.Partitioner = "rcb"
	return cfg
}

// writeCheckpointAt runs cfg at nprocs ranks to completion with a
// checkpoint written every `step` steps and returns the directory of the
// step-`step` checkpoint. Running the full simulation (rather than a
// truncated one) keeps end-of-run special cases, like the final-step remap
// suppression, identical between the writer and the uninterrupted run.
func writeCheckpointAt(t *testing.T, nprocs, step int, cfg Config, base string) string {
	t.Helper()
	first := cfg
	first.CheckpointEvery = step
	first.CheckpointDir = base
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, first)
	})
	dir := checkpoint.StepDir(base, int64(step))
	if _, err := checkpoint.Open(dir); err != nil {
		t.Fatalf("checkpoint at step %d: %v", step, err)
	}
	return dir
}

// TestExactRestoreBitIdentical checks same-processor-count restore: the
// continued run finishes bit-identical to the uninterrupted one, per rank.
func TestExactRestoreBitIdentical(t *testing.T) {
	const nprocs = 4
	cfg := skewedConfig()
	want, wantCounts := gatherMols(t, nprocs, cfg)

	dir := writeCheckpointAt(t, nprocs, 4, cfg, t.TempDir())
	resumed := cfg
	resumed.ResumeFrom = dir
	got, gotCounts := gatherMols(t, nprocs, resumed)

	for r := range wantCounts {
		if gotCounts[r] != wantCounts[r] {
			t.Fatalf("rank %d holds %d molecules, want %d", r, gotCounts[r], wantCounts[r])
		}
	}
	expectBitIdentical(t, "per-rank state", got, want)
}

// TestElasticRestoreAcrossProcCounts is the acceptance scenario: a
// checkpoint written at P=8 restored at P=16 and one written at P=16
// restored at P=8. The collision physics is order-independent, so even the
// elastically restored run must conserve every particle and finish
// bit-identical to the sequential reference; the restored run's molecule
// balance must also stay close to a fresh run's at the same count.
func TestElasticRestoreAcrossProcCounts(t *testing.T) {
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	for _, pc := range []struct{ writeP, restoreP int }{{8, 16}, {16, 8}} {
		dir := writeCheckpointAt(t, pc.writeP, 4, cfg, t.TempDir())
		resumed := cfg
		resumed.ResumeFrom = dir
		got, gotCounts := gatherMols(t, pc.restoreP, resumed)

		if len(got)/recordWidth != cfg.NMols {
			t.Fatalf("P=%d->%d: %d molecules after elastic restore, want %d",
				pc.writeP, pc.restoreP, len(got)/recordWidth, cfg.NMols)
		}
		expectBitIdentical(t, "sorted state vs reference", SortByID(got), wantSorted)

		// Load balance: the restored run's final molecule imbalance should
		// be close to what a fresh run at the restore count reaches.
		_, freshCounts := gatherMols(t, pc.restoreP, cfg)
		imb := func(counts []int) float64 {
			max, sum := 0, 0
			for _, c := range counts {
				if c > max {
					max = c
				}
				sum += c
			}
			return float64(max) * float64(len(counts)) / float64(sum)
		}
		if got, fresh := imb(gotCounts), imb(freshCounts); got > fresh*1.5+0.5 {
			t.Fatalf("P=%d->%d: restored imbalance %.2f far above fresh run's %.2f",
				pc.writeP, pc.restoreP, got, fresh)
		}
	}
}

// TestCrashRecovery injects a rank panic between checkpoints, checks the
// failure poisons the run (peers surface PeerFailure instead of hanging)
// while leaving the last sealed checkpoint behind, then restarts from it —
// on a different processor count — and finishes with the exact reference
// state.
func TestCrashRecovery(t *testing.T) {
	cfg := skewedConfig()
	base := t.TempDir()

	crashing := cfg
	crashing.CheckpointEvery = 2
	crashing.CheckpointDir = base
	crashing.CrashStep = 6
	crashing.CrashRank = 2
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("crashing run did not fail")
			}
			if !strings.Contains(r.(string), "injected crash") {
				t.Fatalf("unexpected failure: %v", r)
			}
		}()
		comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, crashing)
		})
	}()

	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint survived the crash")
	}
	if dir != checkpoint.StepDir(base, 4) {
		t.Fatalf("latest checkpoint %q, want the step-4 one", dir)
	}

	// Elastic restart: the replacement machine has 3 ranks, not 4.
	resumed := cfg
	resumed.ResumeFrom = dir
	got, _ := gatherMols(t, 3, resumed)
	wantSorted, _ := Reference(cfg)
	expectBitIdentical(t, "state after crash recovery", SortByID(got), wantSorted)
}

package charmm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// ckptConfig is smallConfig plus periodic remapping with alternating
// partitioners, so a restore must also reproduce the remap parity counter.
func ckptConfig() Config {
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 12
	cfg.NBEvery = 3
	cfg.Adapt = "periodic:4"
	cfg.AlternatePartitioners = true
	return cfg
}

func runKeepStateAll(t *testing.T, nprocs int, cfg Config) []*FinalState {
	t.Helper()
	finals := make([]*FinalState, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		_, finals[p.Rank()] = RunKeepState(p, cfg)
	})
	return finals
}

// TestExactRestoreBitIdentical checks the tentpole exact-restore guarantee:
// a full run and a run checkpointed halfway then restored at the same
// processor count finish with bit-identical per-rank state.
func TestExactRestoreBitIdentical(t *testing.T) {
	const nprocs = 4
	cfg := ckptConfig()
	want := runKeepStateAll(t, nprocs, cfg)

	base := t.TempDir()
	first := cfg
	first.Steps = 6
	first.CheckpointEvery = 6
	first.CheckpointDir = base
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, first)
	})
	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no checkpoint written")
	}

	resumed := cfg
	resumed.ResumeFrom = dir
	got := runKeepStateAll(t, nprocs, resumed)

	for r := 0; r < nprocs; r++ {
		if len(got[r].Globals) != len(want[r].Globals) {
			t.Fatalf("rank %d owns %d atoms, want %d", r, len(got[r].Globals), len(want[r].Globals))
		}
		for i, g := range want[r].Globals {
			if got[r].Globals[i] != g {
				t.Fatalf("rank %d atom %d is global %d, want %d", r, i, got[r].Globals[i], g)
			}
		}
		for i := range want[r].Pos {
			if got[r].Pos[i] != want[r].Pos[i] {
				t.Fatalf("rank %d position value %d: %v != %v", r, i, got[r].Pos[i], want[r].Pos[i])
			}
			if got[r].Vel[i] != want[r].Vel[i] {
				t.Fatalf("rank %d velocity value %d: %v != %v", r, i, got[r].Vel[i], want[r].Vel[i])
			}
		}
	}
}

// TestElasticRestoreAcrossProcCounts restores a 4-rank CHARMM checkpoint
// onto 2 and 6 ranks. Elastic restore changes force summation order, so the
// check is physical instead of bitwise: every atom present exactly once and
// the final checksum matching the uninterrupted run to tight tolerance.
func TestElasticRestoreAcrossProcCounts(t *testing.T) {
	cfg := ckptConfig()
	var wantChecksum float64
	comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
		res := Run(p, cfg)
		if p.Rank() == 0 {
			wantChecksum = res.Checksum
		}
	})

	base := t.TempDir()
	first := cfg
	first.Steps = 6
	first.CheckpointEvery = 6
	first.CheckpointDir = base
	comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, first)
	})
	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no checkpoint written")
	}

	for _, nprocs := range []int{2, 6} {
		resumed := cfg
		resumed.ResumeFrom = dir
		finals := runKeepStateAll(t, nprocs, resumed)
		seen := map[int32]bool{}
		for _, f := range finals {
			for _, g := range f.Globals {
				if seen[g] {
					t.Fatalf("P=%d: atom %d restored twice", nprocs, g)
				}
				seen[g] = true
			}
		}
		if len(seen) != cfg.NAtoms {
			t.Fatalf("P=%d: %d atoms after elastic restore, want %d", nprocs, len(seen), cfg.NAtoms)
		}
		sum, n := 0.0, 0
		for _, f := range finals {
			for _, v := range f.Pos {
				sum += math.Abs(v)
				n++
			}
		}
		got := sum / float64(n)
		if math.Abs(got-wantChecksum) > 1e-9*math.Abs(wantChecksum) {
			t.Fatalf("P=%d: checksum %v, want %v", nprocs, got, wantChecksum)
		}
	}
}

// TestCrashRecoveryOverTCP runs CHARMM over the multi-connection TCP mesh,
// injects a rank panic mid-run, verifies the failure is surfaced (rather
// than deadlocking the mesh), and restarts from the last sealed checkpoint
// to a final state bit-identical to an uninterrupted run.
func TestCrashRecoveryOverTCP(t *testing.T) {
	const nprocs = 3
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 9
	cfg.NBEvery = 3
	want := runKeepStateAll(t, nprocs, cfg)

	base := t.TempDir()
	crashing := cfg
	crashing.CheckpointEvery = 3
	crashing.CheckpointDir = base
	crashing.CrashStep = 8
	crashing.CrashRank = 1
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
		tr, err := comm.NewTCPMesh(nprocs)
		if err != nil {
			t.Fatal(err)
		}
		comm.RunTransport(nprocs, costmodel.IPSC860(), tr, func(p *comm.Proc) {
			Run(p, crashing)
		})
	}()

	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint survived the crash")
	}
	if dir != checkpoint.StepDir(base, 6) {
		t.Fatalf("latest checkpoint %q, want the step-6 one", dir)
	}

	resumed := cfg
	resumed.ResumeFrom = dir
	finals := make([]*FinalState, nprocs)
	tr, err := comm.NewTCPMesh(nprocs)
	if err != nil {
		t.Fatal(err)
	}
	comm.RunTransport(nprocs, costmodel.IPSC860(), tr, func(p *comm.Proc) {
		_, finals[p.Rank()] = RunKeepState(p, resumed)
	})
	for r := 0; r < nprocs; r++ {
		for i := range want[r].Pos {
			if finals[r].Pos[i] != want[r].Pos[i] {
				t.Fatalf("rank %d position value %d differs after crash recovery", r, i)
			}
		}
	}
}

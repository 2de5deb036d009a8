package charmm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

func TestTinyProblemManyProcs(t *testing.T) {
	// More processors than atoms: some ranks own nothing at various
	// stages; everything must still complete and agree with the reference.
	cfg := DefaultConfig().scaled(6)
	cfg.Steps = 4
	cfg.NBEvery = 2
	_, want := Reference(cfg)
	for _, nprocs := range []int{4, 8} {
		results := make([]*ProcResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("nprocs=%d checksum %v, want %v", nprocs, results[0].Checksum, want)
		}
	}
}

func TestSingleAtom(t *testing.T) {
	cfg := DefaultConfig().scaled(1)
	cfg.Steps = 3
	cfg.NBEvery = 1
	_, want := Reference(cfg)
	results := make([]*ProcResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-12 {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestZeroSteps(t *testing.T) {
	cfg := DefaultConfig().scaled(40)
	cfg.Steps = 0
	results := make([]*ProcResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if results[0].Checksum <= 0 {
		t.Errorf("checksum %v after zero steps", results[0].Checksum)
	}
}

func TestChainPartitionerOnCharmm(t *testing.T) {
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 4
	cfg.NBEvery = 2
	cfg.Partitioner = "chain"
	_, want := Reference(cfg)
	results := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("chain checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestKernelWithoutRemaps(t *testing.T) {
	cfg := smallKernelConfig()
	cfg.RemapEvery = 0
	hand := make([]*KernelResult, 2)
	compiled := make([]*KernelResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		hand[p.Rank()] = RunKernelHand(p, cfg)
	})
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		compiled[p.Rank()] = RunKernelCompiled(p, cfg)
	})
	if math.Abs(hand[0].Checksum-compiled[0].Checksum) > 1e-9*math.Abs(hand[0].Checksum) {
		t.Errorf("no-remap kernel checksums differ: %v vs %v", hand[0].Checksum, compiled[0].Checksum)
	}
	if hand[0].Partition != 0 || hand[0].Remap != 0 {
		t.Errorf("no-remap run reported partition/remap time: %+v", hand[0])
	}
}

func TestTranslationTableKinds(t *testing.T) {
	// The whole application must work with all three translation-table
	// storage modes of §3.1 and produce identical physics.
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 4
	cfg.NBEvery = 2
	_, want := Reference(cfg)
	for _, kind := range []string{"replicated", "distributed", "paged"} {
		cfg := cfg
		cfg.TableKind = kind
		results := make([]*ProcResult, 3)
		comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("kind=%s checksum %v, want %v", kind, results[0].Checksum, want)
		}
	}
}

func TestUnknownTableKindPanics(t *testing.T) {
	comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unknown table kind did not panic")
			}
		}()
		cfg := DefaultConfig().scaled(10)
		cfg.TableKind = "holographic"
		Run(p, cfg)
	})
}

func TestCompiledAppMatchesHandAndReference(t *testing.T) {
	// The fully compiled adaptive application (PairLoop + SumLoop +
	// automatic re-preprocessing) must reproduce the hand-parallelized
	// physics, including under periodic repartitioning.
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 6
	cfg.NBEvery = 3
	_, want := Reference(cfg)
	for _, nprocs := range []int{1, 3} {
		results := make([]*ProcResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = RunCompiled(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("nprocs=%d compiled checksum %v, want %v", nprocs, results[0].Checksum, want)
		}
		if results[0].NBEntries == 0 {
			t.Errorf("nprocs=%d: empty non-bonded list", nprocs)
		}
	}

	// With remapping (the fully adaptive scenario).
	cfg.Adapt = "periodic:4"
	cfg.AlternatePartitioners = true
	_, want = Reference(cfg)
	results := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = RunCompiled(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("remapped compiled checksum %v, want %v", results[0].Checksum, want)
	}
	if results[0].Phases[PhaseSchedRegen] <= 0 {
		t.Errorf("no schedule regeneration recorded: %v", results[0].Phases)
	}
	hand := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		hand[p.Rank()] = Run(p, cfg)
	})
	if got, want := fmt.Sprint(results[0].RemapSteps), fmt.Sprint(hand[0].RemapSteps); got != want || got == "[]" {
		t.Errorf("compiled remapped at %s, hand-parallelized at %s", got, want)
	}

	// Under the online remap policy, with its agreement check armed.
	cfg.Adapt = "policy"
	cfg.AdaptVerify = true
	_, want = Reference(cfg)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = RunCompiled(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("policy compiled checksum %v, want %v", results[0].Checksum, want)
	}
}

// TestCompiledRefusesUnsupportedOptions: RunCompiled panics on the options
// it has no implementation for instead of silently ignoring them.
func TestCompiledRefusesUnsupportedOptions(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"checkpoint", func(c *Config) { c.CheckpointEvery, c.CheckpointDir = 1, dir }},
		{"resume", func(c *Config) { c.ResumeFrom = dir }},
		{"crash", func(c *Config) { c.CrashStep = 1 }},
		{"table", func(c *Config) { c.TableKind = "distributed" }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig().scaled(60)
		cfg.Steps = 2
		tc.set(&cfg)
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunCompiled accepted an unsupported option", tc.name)
				}
			}()
			RunCompiled(p, cfg)
		})
	}
}

func TestCompiledAppNearHandPerformance(t *testing.T) {
	cfg := DefaultConfig().scaled(1200)
	cfg.Steps = 8
	cfg.NBEvery = 4
	exec := func(run func(p *comm.Proc, cfg Config) *ProcResult) float64 {
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			run(p, cfg)
		})
		return rep.MaxClock()
	}
	hand := exec(Run)
	compiled := exec(RunCompiled)
	if compiled > hand*1.25 {
		t.Errorf("compiled app %.4fs more than 25%% over hand-coded %.4fs", compiled, hand)
	}
}

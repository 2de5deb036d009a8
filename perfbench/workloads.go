package main

import (
	"fmt"
	"math"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/dsmc"
)

// Work per run. The sizes are the paper's; the step counts are cut so one
// run takes about a second at two ranks, which lets every benchmark run
// take several samples of each end-to-end metric.
const (
	charmmSteps  = 30 // 6 non-bonded list regenerations at NBEvery 5
	dsmcSteps    = 100
	dsmcRemap    = 25 // 3 periodic remaps in dsmcSteps
	kernelIters  = 50
	kernelRemap  = 25 // Table 6's period: one RCB and one RIB remap
	kernelAtoms  = 14026
	tinyAtoms    = 600
	tinySteps    = 10
	tinyDSMCMols = 1500
)

// rankOut is what one rank reports back from a workload body.
type rankOut struct {
	checksum    float64 // global: identical on every rank
	remaps      int     // dsmc: periodic repartitions during the steps
	inspections int     // loopir: inspector runs of the SumLoop
}

// instance is one workload with its seeded inputs and its sequential
// references. References are computed once, before anything is timed.
type instance struct {
	// body runs one rank of the workload; setupOnly runs it with zero time
	// steps (initial condition, partitioning, remap and first inspector).
	body func(p *comm.Proc, t *tracer, setupOnly bool) rankOut
	// ref and refSetup are the sequential checksums of a full and a
	// setup-only run.
	ref, refSetup float64
	// phasePrefix names the module whose measured phase totals
	// (Report.Measured[r].Phases) are read back; "" means they are never
	// read, because loopir charges its own "executor"/"inspector" phases on
	// top of any timer the caller keeps.
	phasePrefix string
}

// workload names one benchmark workload and builds its instance from a
// seed. tiny shrinks it to test size.
type workload struct {
	name string
	make func(seed int64, tiny bool) *instance
}

var workloads = []workload{
	{"charmm-md", newCharmmMD},
	{"dsmc-drift", newDSMCDrift},
	{"kernel-remap", newKernelRemap},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newCharmmMD is charmm.Run on the paper's 14026-atom case: RCB, merged
// schedules, non-bonded list regenerated every 5 steps, no in-run remap.
func newCharmmMD(seed int64, tiny bool) *instance {
	cfg := charmm.DefaultConfig()
	cfg.Steps = charmmSteps
	if tiny {
		cfg = charmm.ConfigForAtoms(tinyAtoms)
		cfg.Steps = tinySteps
	}
	cfg.Seed = seed
	setup := cfg
	setup.Steps = 0
	_, ref := charmm.Reference(cfg)
	_, refSetup := charmm.Reference(setup)
	return &instance{
		ref: ref, refSetup: refSetup, phasePrefix: "charmm.",
		body: func(p *comm.Proc, _ *tracer, setupOnly bool) rankOut {
			c := cfg
			if setupOnly {
				c = setup
			}
			return rankOut{checksum: charmm.Run(p, c).Checksum}
		},
	}
}

// newDSMCDrift is dsmc.Run on Table 5's drifting concentration with the
// light mover, the chain partitioner and a remap every 25 steps. The remap
// period is fixed: a "policy" trigger prices steps by measured wall time
// under RunMeasured, so it would remap a different number of times from
// run to run.
func newDSMCDrift(seed int64, tiny bool) *instance {
	cfg := dsmc.Default3D()
	cfg.Steps = dsmcSteps
	cfg.Partitioner = "chain"
	cfg.Adapt = fmt.Sprintf("periodic:%d", dsmcRemap)
	if tiny {
		cfg.NX, cfg.NMols, cfg.Steps = 96, tinyDSMCMols, tinySteps
		cfg.Adapt = "periodic:4"
	}
	cfg.Seed = seed
	setup := cfg
	setup.Steps = 0
	_, ref := dsmc.Reference(cfg)
	_, refSetup := dsmc.Reference(setup)
	return &instance{
		ref: ref, refSetup: refSetup, phasePrefix: "dsmc.",
		body: func(p *comm.Proc, _ *tracer, setupOnly bool) rankOut {
			c := cfg
			if setupOnly {
				c = setup
			}
			res := dsmc.Run(p, c)
			return rankOut{checksum: res.Checksum, remaps: len(res.RemapSteps)}
		},
	}
}

// newKernelRemap is Table 6's non-bonded kernel through loopir, driven by
// the benchmark (see runKernel) over a cutoff-pair list it generates from
// charmm.GenInitState positions.
func newKernelRemap(seed int64, tiny bool) *instance {
	n, iters := kernelAtoms, kernelIters
	if tiny {
		n = tinyAtoms
	}
	md := charmm.ConfigForAtoms(n)
	md.Seed = seed
	in := &kernelInput{n: n, pos: charmm.GenInitState(md).Pos}
	in.ptr, in.nbr = cutoffPairs(in.pos, n, md.Box, md.Cutoff)
	return &instance{
		ref: kernelReference(in, iters), refSetup: kernelReference(in, 0),
		body: func(p *comm.Proc, t *tracer, setupOnly bool) rankOut {
			it := iters
			if setupOnly {
				it = 0
			}
			return runKernel(p, t, in, it)
		},
	}
}

// relErr is |got-want| relative to |want|, or absolute when want is 0.
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want != 0 {
		d /= math.Abs(want)
	}
	return d
}

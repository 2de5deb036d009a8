// dsmc example: run the mini particle-in-cell application with all three
// MOVE implementations (light-weight schedules, regular schedules, and the
// compiler's REDUCE(APPEND) lowering), verify they produce identical
// physics, and show the remapping policies on a drifting 3-D flow.
package main

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

func main() {
	cfg := dsmc.Default2D(16)
	cfg.NMols = 2000
	cfg.Steps = 15
	_, want := dsmc.Reference(cfg)
	fmt.Printf("2-D %dx%d, %d molecules, %d steps; sequential checksum %.6f\n",
		cfg.NX, cfg.NY, cfg.NMols, cfg.Steps, want)

	for _, mover := range []dsmc.Mover{dsmc.MoverLight, dsmc.MoverRegular, dsmc.MoverCompiler} {
		c := cfg
		c.Mover = mover
		results := make([]*dsmc.ProcResult, 8)
		rep := comm.Run(8, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = dsmc.Run(p, c)
		})
		err := math.Abs(results[0].Checksum - want)
		fmt.Printf("  mover=%-8s exec=%8.4fs move=%8.4fs  |err|=%.1e\n",
			mover, rep.MaxClock(), maxMove(results), err)
		if err > 1e-6 {
			panic("mover produced different physics")
		}
	}

	// Remapping policies under directional flow (the Table 5 effect).
	cfg3 := dsmc.Default3D()
	cfg3.NX, cfg3.NY, cfg3.NZ = 64, 4, 4
	cfg3.NMols = 4000
	cfg3.Steps = 40
	fmt.Printf("\n3-D %dx%dx%d drifting flow, %d molecules, %d steps, 8 processors:\n",
		cfg3.NX, cfg3.NY, cfg3.NZ, cfg3.NMols, cfg3.Steps)
	for _, pol := range []struct {
		name  string
		part  string
		adapt string
	}{
		{"static partition", "block", "static"},
		{"RCB every 10", "rcb", "periodic:10"},
		{"chain every 10", "chain", "periodic:10"},
	} {
		c := cfg3
		c.Partitioner = pol.part
		c.Adapt = pol.adapt
		rep := comm.Run(8, costmodel.IPSC860(), func(p *comm.Proc) {
			dsmc.Run(p, c)
		})
		fmt.Printf("  %-18s exec=%8.4fs LB=%.3f\n", pol.name, rep.MaxClock(), rep.LoadBalance())
	}
}

func maxMove(results []*dsmc.ProcResult) float64 {
	m := 0.0
	for _, r := range results {
		if r.MoveTime > m {
			m = r.MoveTime
		}
	}
	return m
}

package adapt_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// triggerDigest is what one golden run pins: the makespan's bits, an FNV
// fold of every rank's final clock, the global checksum's bits, the total
// message count and, where pinned, the remap steps rank 0 reports.
func triggerDigest(rep *comm.Report, checksum float64, remaps []int, pinRemaps bool) string {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range rep.Clocks {
		w := math.Float64bits(c)
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	s := fmt.Sprintf("%#x %#x %#x %d", math.Float64bits(rep.MaxClock()), h.Sum64(), math.Float64bits(checksum), rep.TotalMsgsSent())
	if pinRemaps {
		s += fmt.Sprintf(" %v", remaps)
	}
	return s
}

// triggerCharmmConfig is a small charmm case with alternating partitioners,
// so every remap also exercises the partitioner parity counter.
func triggerCharmmConfig() charmm.Config {
	cfg := charmm.ConfigForAtoms(300)
	cfg.Steps = 8
	cfg.NBEvery = 3
	cfg.AlternatePartitioners = true
	return cfg
}

// triggerDSMCConfig is a small drifting 3-D flow: a concentration in the
// low-x half of a long domain, so partitions lose balance as it moves.
func triggerDSMCConfig() dsmc.Config {
	cfg := dsmc.Default3D()
	cfg.NX, cfg.NY, cfg.NZ = 64, 4, 4
	cfg.NMols = 900
	cfg.Steps = 12
	return cfg
}

func runCharmm(nprocs int, cfg charmm.Config, run func(*comm.Proc, charmm.Config) *charmm.ProcResult, pinRemaps bool) string {
	results := make([]*charmm.ProcResult, nprocs)
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = run(p, cfg)
	})
	return triggerDigest(rep, results[0].Checksum, results[0].RemapSteps, pinRemaps)
}

func runDSMC(nprocs int, cfg dsmc.Config) string {
	results := make([]*dsmc.ProcResult, nprocs)
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = dsmc.Run(p, cfg)
	})
	return triggerDigest(rep, results[0].Checksum, results[0].RemapSteps, true)
}

// remapTriggerGolden holds the digests of every case, captured before the
// remap decision moved behind adapt.Trigger.
var remapTriggerGolden = map[string]string{
	"charmm/compiled//2":               "0x3fd477e3bc528120 0x509da7fb59fb23b5 0x4004311aedd3e88e 232",
	"charmm/compiled//3":               "0x3fce8a3d30372a68 0xe5fa3cb0a499e5c9 0x4004311aedd3e88f 722",
	"charmm/compiled/periodic:2/2":     "0x3fddeda8ba73d997 0x2045bf05ced54b0b 0x4004311aedd3e88e 724",
	"charmm/compiled/periodic:2/3":     "0x3fda3d7fbd4f80b0 0xeffcda91beef61b4 0x4004311aedd3e892 2400",
	"charmm/compiled/static/2":         "0x3fd477e3bc528120 0x509da7fb59fb23b5 0x4004311aedd3e88e 232",
	"charmm/compiled/static/3":         "0x3fce8a3d30372a68 0xe5fa3cb0a499e5c9 0x4004311aedd3e88f 722",
	"charmm/resume":                    "0x3fd925ca140ace4f 0xd449efe92952fc04 0x4004311aedd3e892 1278 [4 6 8]",
	"charmm/run//2":                    "0x3fd3db60e446660c 0x23717abe7844ecd 0x4004311aedd3e88e 190 []",
	"charmm/run//3":                    "0x3fcd4b62ffd48c03 0xf8d9a9bce938be61 0x4004311aedd3e88f 612 []",
	"charmm/run/periodic:2/2":          "0x3fdc678c2b470062 0xb1c8fd0f2e1144fd 0x4004311aedd3e88e 616 [2 4 6 8]",
	"charmm/run/periodic:2/3":          "0x3fd8bde451a3b613 0xe3adb3ae3d4f14b3 0x4004311aedd3e892 2128 [2 4 6 8]",
	"charmm/run/policy/2":              "0x3fd3f319e8896bc7 0x4e0c140f5929080b 0x4004311aedd3e88e 208 []",
	"charmm/run/policy/3":              "0x3fcd903f7dc450fa 0xa58d928a94101a64 0x4004311aedd3e88f 648 []",
	"charmm/run/static/2":              "0x3fd3db60e446660c 0x23717abe7844ecd 0x4004311aedd3e88e 190 []",
	"charmm/run/static/3":              "0x3fcd4b62ffd48c03 0xf8d9a9bce938be61 0x4004311aedd3e88f 612 []",
	"dsmc/compiler/block//2":           "0x400aa2b932bc14e7 0x76cbaed91e82437d 0x40d22a6388760496 72 []",
	"dsmc/compiler/block//3":           "0x40019feead723e8e 0x25ea9e7ae0640c2f 0x40d22a638876049a 186 []",
	"dsmc/compiler/block/periodic:2/2": "0x400aea02edf109c0 0x757e382bc9d618d9 0x40d22a6388760496 162 [2 4 6 8 10]",
	"dsmc/compiler/block/periodic:2/3": "0x4001e435a47ca19d 0x239fc6e1794e2b8d 0x40d22a638876049a 416 [2 4 6 8 10]",
	"dsmc/compiler/block/policy/2":     "0x400ab2fc8c581288 0x8084f7a12d8b380d 0x40d22a6388760496 114 [3]",
	"dsmc/compiler/block/policy/3":     "0x4001b17171dd3d0b 0xcbea1106723a97a1 0x40d22a638876049a 280 [3]",
	"dsmc/compiler/block/static/2":     "0x400aa2b932bc14e7 0x76cbaed91e82437d 0x40d22a6388760496 72 []",
	"dsmc/compiler/block/static/3":     "0x40019feead723e8e 0x25ea9e7ae0640c2f 0x40d22a638876049a 186 []",
	"dsmc/compiler/chain/periodic:2/2": "0x4002e87b9f32b5b3 0x802afc259b1f8de9 0x40d22a638876049a 222 [2 4 6 8 10]",
	"dsmc/compiler/chain/periodic:2/3": "0x3ffa8af302ec6e8e 0xc2f0bb9e3c2e461f 0x40d22a6388760499 548 [2 4 6 8 10]",
	"dsmc/compiler/chain/policy/2":     "0x40027d36e26a42eb 0x5feb234f55c1bed2 0x40d22a638876049a 152 [3]",
	"dsmc/compiler/chain/policy/3":     "0x3ff9b4d09731b560 0x259d8fd676510596 0x40d22a6388760499 368 [3]",
	"dsmc/compiler/chain/static/2":     "0x40025f45a5a6982f 0x7347b00d9ec58512 0x40d22a638876049a 102 []",
	"dsmc/compiler/chain/static/3":     "0x3ff97410d3b7cd90 0x1b3214196ae852c8 0x40d22a6388760499 258 []",
	"dsmc/light/block//2":              "0x400a8331d38caf78 0x8a475bda28e05cba 0x40d22a6388760496 41 []",
	"dsmc/light/block//3":              "0x400187ab903c22c6 0x9aebad1d3c16b8b5 0x40d22a638876049a 103 []",
	"dsmc/light/block/periodic:2/2":    "0x400aca7b8ec1a451 0x108c680c224a8542 0x40d22a6388760496 131 [2 4 6 8 10]",
	"dsmc/light/block/periodic:2/3":    "0x4001cbf2874685d6 0x85cc1e442d810b3d 0x40d22a638876049a 333 [2 4 6 8 10]",
	"dsmc/light/block/policy/2":        "0x400a93752d28ad19 0x2fa7f04c757eeeda 0x40d22a6388760496 83 [3]",
	"dsmc/light/block/policy/3":        "0x4001992e54a72144 0x78d8ad936c2f159e 0x40d22a638876049a 197 [3]",
	"dsmc/light/block/static/2":        "0x400a8331d38caf78 0x8a475bda28e05cba 0x40d22a6388760496 41 []",
	"dsmc/light/block/static/3":        "0x400187ab903c22c6 0x9aebad1d3c16b8b5 0x40d22a638876049a 103 []",
	"dsmc/light/chain/periodic:2/2":    "0x4002d1b691212513 0xf36a84169b595b0b 0x40d22a638876049a 189 [2 4 6 8 10]",
	"dsmc/light/chain/periodic:2/3":    "0x3ffa66b64d2e870a 0x61aba75e0b713653 0x40d22a6388760499 460 [2 4 6 8 10]",
	"dsmc/light/chain/policy/2":        "0x40026671d458b24b 0xa9b419aaef71260b 0x40d22a638876049a 119 [3]",
	"dsmc/light/chain/policy/3":        "0x3ff99093e173cdda 0xb6d3b2a893d6866a 0x40d22a6388760499 280 [3]",
	"dsmc/light/chain/static/2":        "0x400248809795078f 0x258ef8d675eabed5 0x40d22a638876049a 69 []",
	"dsmc/light/chain/static/3":        "0x3ff94fd41df9e60b 0x968026e6b9d93130 0x40d22a6388760499 170 []",
	"dsmc/regular/block//2":            "0x400a925bbd151ec6 0x5977337590d1b01 0x40d22a6388760499 89 []",
	"dsmc/regular/block//3":            "0x400196a2b97de58b 0x6764bef1a1b3560a 0x40d22a6388760499 247 []",
	"dsmc/regular/block/periodic:2/2":  "0x400ad9a5784a139f 0xc19162f02299bf08 0x40d22a6388760499 179 [2 4 6 8 10]",
	"dsmc/regular/block/periodic:2/3":  "0x4001dae9b088489b 0xfa645c7f390f920f 0x40d22a6388760499 477 [2 4 6 8 10]",
	"dsmc/regular/block/policy/2":      "0x400aa29f16b11c68 0xaf3b56997febd629 0x40d22a6388760499 131 [3]",
	"dsmc/regular/block/policy/3":      "0x4001a8257de8e408 0x4be21e4384da4831 0x40d22a6388760499 341 [3]",
	"dsmc/regular/block/static/2":      "0x400a925bbd151ec6 0x5977337590d1b01 0x40d22a6388760499 89 []",
	"dsmc/regular/block/static/3":      "0x400196a2b97de58b 0x6764bef1a1b3560a 0x40d22a6388760499 247 []",
	"dsmc/regular/chain/periodic:2/2":  "0x4002dd4088057285 0x225f9dd49da4c1f1 0x40d22a638876049a 237 [2 4 6 8 10]",
	"dsmc/regular/chain/periodic:2/3":  "0x3ffa8045aada08dd 0x1957d45d5f165f07 0x40d22a6388760497 604 [2 4 6 8 10]",
	"dsmc/regular/chain/policy/2":      "0x400271fbcb3cffbb 0x8dbe49ccda875835 0x40d22a638876049a 167 [3]",
	"dsmc/regular/chain/policy/3":      "0x3ff9aa233f1f4fae 0x651ca1577e0109f4 0x40d22a6388760497 424 [3]",
	"dsmc/regular/chain/static/2":      "0x4002540a8e795501 0x47c2fb118474d979 0x40d22a638876049a 117 []",
	"dsmc/regular/chain/static/3":      "0x3ff969637ba567de 0xf7290064595812e3 0x40d22a6388760497 314 []",
	"dsmc/resume":                      "0x3ffa7b5f26ac114e 0xf052a88a004540e 0x40d22a6388760499 251 [6 8 10]",
}

// TestRemapTriggerGolden pins the remap paths of charmm.Run,
// charmm.RunCompiled and dsmc.Run under every trigger mode at 2 and 3 ranks
// on the mem transport, plus an exact checkpoint resume mid-run under a
// periodic trigger for each application. Where the chain partitioner is
// pinned without remaps, the mode is "static".
func TestRemapTriggerGolden(t *testing.T) {
	got := map[string]string{}
	for _, nprocs := range []int{2, 3} {
		for _, mode := range []string{"", "static", "periodic:2", "policy"} {
			cfg := triggerCharmmConfig()
			cfg.Adapt = mode
			got[fmt.Sprintf("charmm/run/%s/%d", mode, nprocs)] = runCharmm(nprocs, cfg, charmm.Run, true)
			if mode != "policy" {
				got[fmt.Sprintf("charmm/compiled/%s/%d", mode, nprocs)] = runCharmm(nprocs, cfg, charmm.RunCompiled, false)
			}
		}
		for _, mover := range []dsmc.Mover{dsmc.MoverLight, dsmc.MoverRegular, dsmc.MoverCompiler} {
			for _, part := range []string{"block", "chain"} {
				for _, mode := range []string{"", "static", "periodic:2", "policy"} {
					if mode == "" && part != "block" {
						continue
					}
					cfg := triggerDSMCConfig()
					cfg.Mover, cfg.Partitioner, cfg.Adapt = mover, part, mode
					got[fmt.Sprintf("dsmc/%s/%s/%s/%d", mover, part, mode, nprocs)] = runDSMC(nprocs, cfg)
				}
			}
		}
	}

	// Exact resume from the step-3 checkpoint of a periodic:2 run.
	const nprocs = 3
	ccfg := triggerCharmmConfig()
	ccfg.Adapt = "periodic:2"
	first := ccfg
	first.Steps, first.CheckpointEvery, first.CheckpointDir = 3, 3, t.TempDir()
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { charmm.Run(p, first) })
	ccfg.ResumeFrom = filepath.Join(first.CheckpointDir, "ckpt-00000003")
	got["charmm/resume"] = runCharmm(nprocs, ccfg, charmm.Run, true)

	dcfg := triggerDSMCConfig()
	dcfg.Partitioner, dcfg.Adapt = "chain", "periodic:2"
	dfirst := dcfg
	dfirst.Steps, dfirst.CheckpointEvery, dfirst.CheckpointDir = 5, 5, t.TempDir()
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { dsmc.Run(p, dfirst) })
	dcfg.ResumeFrom = filepath.Join(dfirst.CheckpointDir, "ckpt-00000005")
	got["dsmc/resume"] = runDSMC(nprocs, dcfg)

	if len(got) != len(remapTriggerGolden) {
		t.Errorf("%d cases, %d golden digests", len(got), len(remapTriggerGolden))
	}
	for k, g := range got {
		if want := remapTriggerGolden[k]; g != want {
			t.Errorf("%s: got %q, want %q", k, g, want)
		}
	}
}

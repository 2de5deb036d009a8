package adapt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
)

// Trigger decides when an application repartitions. It is built from the
// application's selector: "" or "static" repartitions only at setup,
// "periodic:N" every N steps, and "policy" whenever its Policy decides.
//
// A run loop calls Baseline once before its first step, Due once per step,
// and Begin and End around every repartition episode, the setup partition
// included. Only the policy mode samples clocks or communicates, so static
// and periodic triggers leave every virtual clock untouched.
type Trigger struct {
	period int     // N of "periodic:N"; 0 otherwise
	pol    *Policy // the "policy" mode's engine; nil otherwise
	last   float64 // cost point at the end of the last step or episode
	t0     float64 // episode point at Begin
}

// NewTrigger parses a selector; verify arms Policy.Verify.
func NewTrigger(mode string, verify bool) (*Trigger, error) {
	switch {
	case mode == "" || mode == "static":
		return &Trigger{}, nil
	case mode == "policy":
		pol := NewPolicy()
		pol.Verify = verify
		return &Trigger{pol: pol}, nil
	case strings.HasPrefix(mode, "periodic:"):
		if n, err := strconv.Atoi(strings.TrimPrefix(mode, "periodic:")); err == nil && n > 0 {
			return &Trigger{period: n}, nil
		}
	}
	return nil, fmt.Errorf("adapt: bad mode %q (want static, periodic:N or policy)", mode)
}

// Baseline samples the step cost the first Due measures from.
func (t *Trigger) Baseline(p *comm.Proc) {
	if t.pol != nil {
		t.last = costPoint(p)
	}
}

// Due reports whether to repartition at this step. Collective under the
// policy mode: every rank calls it once per step and gets the same verdict.
func (t *Trigger) Due(p *comm.Proc, step int) bool {
	if t.pol != nil {
		now := costPoint(p)
		due := t.pol.Step(p, now-t.last)
		t.last = now
		return due
	}
	return t.period > 0 && step%t.period == 0
}

// Begin marks the start of a repartition episode.
func (t *Trigger) Begin(p *comm.Proc) {
	if t.pol != nil {
		t.t0 = episodePoint(p)
	}
}

// End marks the end of the episode: the policy fits its remap cost from it
// (a collective), and the next step's cost is measured from here, so the
// episode is not billed as step skew.
func (t *Trigger) End(p *comm.Proc) {
	if t.pol != nil {
		t.pol.ObserveRemap(p, episodePoint(p)-t.t0)
		t.last = costPoint(p)
	}
}

// costPoint samples a rank's cumulative compute cost: virtual ComputeTime
// on modeled runs, wall time outside blocking receives under
// comm.RunMeasured.
func costPoint(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow() - p.Measured().CommWall
	}
	return p.Stats().ComputeTime
}

// episodePoint samples the clock that prices a whole remap episode, waits
// included.
func episodePoint(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow()
	}
	return p.Clock()
}

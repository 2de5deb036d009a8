package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// stealTicks returns the host's cumulative stolen CPU time in clock ticks,
// summed over all CPUs: the "steal" column of /proc/stat, time a virtual
// machine's CPUs were ready to run but the hypervisor ran someone else.
// It returns 0 where /proc/stat does not exist or has no such column.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Steal filter. On a virtual host whose neighbours take the CPUs away in
// bursts of several seconds, a run that overlapped a burst measures the
// neighbour, not the program. Timings are therefore the median over the
// quiet runs: those that lost at most quietSteal of the host's CPU time to
// steal. When fewer than minQuiet runs qualify, the minQuiet runs with the
// lowest steal rate stand in. On a host without steal every run is quiet
// and this is the plain median.
const (
	quietSteal     = 0.03
	minQuiet       = 3
	ticksPerSecond = 100 // USER_HZ, the unit of /proc/stat
)

// stealFrac is the share of the host's CPU time stolen during r.
func stealFrac(r *runResult) float64 {
	capacity := r.rep.Wall.Seconds() * float64(runtime.NumCPU()) * ticksPerSecond
	if capacity <= 0 {
		return 0
	}
	return float64(r.steal) / capacity
}

// quietRuns returns the quiet runs of rs (see quietSteal).
func quietRuns(rs []*runResult) []*runResult {
	sorted := append([]*runResult(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool { return stealFrac(sorted[i]) < stealFrac(sorted[j]) })
	n := 0
	for n < len(sorted) && stealFrac(sorted[n]) <= quietSteal {
		n++
	}
	return sorted[:max(n, min(minQuiet, len(sorted)))]
}

// quietMedian is the median of f over the quiet runs of rs.
func quietMedian(rs []*runResult, f func(*runResult) float64) float64 {
	return median(collect(quietRuns(rs), f))
}

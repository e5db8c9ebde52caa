package metrics

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// NominalGHz is the nominal CPU frequency used to convert wall-clock time to
// reference cycles, mirroring the paper's use of reference cycles "measured
// at a constant nominal frequency" (§3.2). The paper's profiling machine ran
// at 2.7 GHz; we keep the same constant so that normalized rates are on a
// comparable scale.
const NominalGHz = 2.7

// RefCycles converts a wall-clock duration into reference cycles at the
// nominal frequency.
func RefCycles(d time.Duration) float64 {
	return float64(d.Nanoseconds()) * NominalGHz
}

// A Profile is the result of profiling one steady-state benchmark execution:
// raw counts plus the denominators needed for normalization.
type Profile struct {
	Benchmark string
	Suite     string
	Counts    Snapshot
	// RefCycles is the reference-cycle count of the profiled execution
	// (wall time at nominal frequency, or the RVM's deterministic cycle
	// count for kernel workloads).
	RefCycles float64
	// CPUUtil is the process's user plus system CPU time over the region,
	// in percent of the capacity elapsed × GOMAXPROCS (clamped to 0..100).
	CPUUtil float64
	// Elapsed is the profiled wall-clock duration.
	Elapsed time.Duration
}

// Rate returns the metric's occurrence count normalized by reference cycles
// (§3.2). For the CPU metric it returns the utilization percentage, which
// the paper does not normalize.
func (p *Profile) Rate(m Metric) float64 {
	if m == CPU {
		return p.CPUUtil
	}
	if p.RefCycles <= 0 {
		return 0
	}
	return float64(p.Counts.Get(m)) / p.RefCycles
}

func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s:", p.Suite, p.Benchmark)
	for m := Metric(0); m < NumMetrics; m++ {
		if m == CPU {
			fmt.Fprintf(&b, " cpu=%.1f%%", p.CPUUtil)
			continue
		}
		fmt.Fprintf(&b, " %s=%d", m, p.Counts.Get(m))
	}
	return b.String()
}

// A Profiler brackets a measured region: it snapshots the Default recorder,
// the wall clock, the process's CPU time, and allocation statistics, and
// produces a Profile on Stop.
type Profiler struct {
	benchmark string
	suite     string
	start     time.Time
	base      Snapshot
	cpuBase   float64
	memBase   runtime.MemStats
}

// StartProfile begins profiling a region attributed to the given suite and
// benchmark name.
func StartProfile(suite, benchmark string) *Profiler {
	p := &Profiler{benchmark: benchmark, suite: suite}
	runtime.ReadMemStats(&p.memBase)
	p.cpuBase = totalCPUSeconds()
	p.base = Default.Snapshot()
	p.start = time.Now()
	return p
}

// Stop ends the profiled region and returns the resulting Profile.
//
// The cachemiss counter is the sum of the explicitly recorded simulated
// misses (from the RVM cache simulator) and an allocation-pressure proxy:
// each 64-byte cache line of newly allocated heap memory is counted as one
// compulsory miss. This preserves the paper's use of cachemiss as an
// indirect indicator of memory traffic and contention (§3.1) without
// requiring hardware counters.
func (p *Profiler) Stop() *Profile {
	elapsed := time.Since(p.start)
	snap := Default.Snapshot().Delta(p.base)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocBytes := int64(mem.TotalAlloc - p.memBase.TotalAlloc)
	if allocBytes > 0 {
		snap.Counts[CacheMiss] += allocBytes / 64
	}

	// The process clock never runs backwards, but threads outside
	// GOMAXPROCS (sysmon, blocking syscalls) can push the share past 100.
	util := 0.0
	if elapsed > 0 {
		cpuSec := totalCPUSeconds() - p.cpuBase
		util = min(100, 100*cpuSec/(elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}

	return &Profile{
		Benchmark: p.benchmark,
		Suite:     p.suite,
		Counts:    snap,
		RefCycles: RefCycles(elapsed),
		CPUUtil:   util,
		Elapsed:   elapsed,
	}
}

// SortProfiles orders profiles by suite then benchmark name, the order used
// by the report tables.
func SortProfiles(ps []*Profile) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Suite != ps[j].Suite {
			return ps[i].Suite < ps[j].Suite
		}
		return ps[i].Benchmark < ps[j].Benchmark
	})
}

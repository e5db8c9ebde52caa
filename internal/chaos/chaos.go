// Package chaos is the process-wide fault-injection engine: a seeded,
// rate-configurable registry of named injection points compiled into the
// harness and the concurrency substrates — core.iteration (a panic before
// a benchmark iteration), actor mailbox delivery, fork-join chunk claiming
// and deque stealing, the RDD engine's partition tasks, recomputes, and
// shuffle exchange (rdd.task, rdd.recompute, rdd.shuffle), netstack reads
// and writes, STM commits — so the fault *domains* built into each layer
// (the harness's panic isolation and run retries, supervision, TaskError
// propagation, lineage recompute) are exercised under deterministic,
// reproducible schedules.
//
// Design constraints:
//
//   - Disabled is free: every injection point starts with a single atomic
//     load of the enabled flag and returns immediately when it is false, so
//     production and benchmark runs pay one predictable branch, never a
//     map lookup or an RNG draw.
//   - Deterministic: a decision is a pure function of (seed, point name,
//     per-point trial index). Two runs with the same seed and the same
//     per-point call sequence inject at the same trials; changing the seed
//     reshuffles every decision. No global ordering across points is
//     assumed — concurrent substrates interleave nondeterministically, but
//     each point's k-th trial is stable given k.
//   - Observable: every point records how many trials it saw and how many
//     faults it fired, so a chaos sweep can assert both that injection
//     actually happened and that the system degraded cleanly.
package chaos

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// on gates every injection point; false means every Maybe/Fail call is
	// a single atomic load and an immediate return.
	on atomic.Bool
	// seed and rateBits are read on every enabled trial; they are atomics
	// so the decision path takes no lock.
	seed     atomic.Int64
	rateBits atomic.Uint64 // math.Float64bits of the global rate

	points sync.Map // string -> *point
)

// point is the per-injection-point state: a trial counter driving the
// deterministic decision stream, a fire counter for observability, and an
// optional rate override.
type point struct {
	name   string
	hash   uint64
	trials atomic.Int64
	fires  atomic.Int64
	// override holds a per-point rate as math.Float64bits(rate)+1; zero
	// means "use the global rate".
	override atomic.Uint64
}

func clampRate(r float64) float64 {
	switch {
	case r < 0 || math.IsNaN(r):
		return 0
	case r > 1:
		return 1
	}
	return r
}

// Configure seeds the engine and enables injection at the given global
// rate (a probability in [0, 1]; values outside are clamped). A rate of 0
// configures the seed but leaves every point dormant. Trial and fire
// counters from a previous configuration are reset so sweeps under
// different seeds report independent tallies; per-point rate overrides are
// cleared.
func Configure(newSeed int64, newRate float64) {
	newRate = clampRate(newRate)
	seed.Store(newSeed)
	rateBits.Store(math.Float64bits(newRate))
	points.Range(func(_, v any) bool {
		p := v.(*point)
		p.trials.Store(0)
		p.fires.Store(0)
		p.override.Store(0)
		return true
	})
	on.Store(newRate > 0)
}

// Disable turns every injection point back into a no-op. Per-point
// overrides and counters are preserved until the next Configure.
func Disable() { on.Store(false) }

// Seed returns the configured seed.
func Seed() int64 { return seed.Load() }

// Rate returns the configured global rate.
func Rate() float64 { return math.Float64frombits(rateBits.Load()) }

// SetRate overrides the fire rate of one named point (clamped to [0, 1]),
// taking precedence over the global rate, and arms the engine if it was
// dormant. Tests use this to drive a single point at rate 1 while the rest
// of the system stays quiet.
func SetRate(name string, r float64) {
	pointFor(name).override.Store(math.Float64bits(clampRate(r)) + 1)
	if r > 0 {
		on.Store(true)
	}
}

func pointFor(name string) *point {
	if v, ok := points.Load(name); ok {
		return v.(*point)
	}
	p := &point{name: name, hash: nameHash(name)}
	v, _ := points.LoadOrStore(name, p)
	return v.(*point)
}

// nameHash is FNV-1a over the point name: process-independent, so a
// pinned -chaos.seed reproduces the same decision stream across runs of
// the binary (maphash's per-process random seed broke that promise —
// two runs with identical flags could fire at different trials).
func nameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is the splitmix64 finalizer, the decision mixer: full-avalanche,
// so consecutive trial indices produce uncorrelated decisions. It is
// exported as the one stateless mixer behind every seeded stream in the
// substrates (chaos decisions, backoff jitter, the work-stealing
// schedulers' victim choice).
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Maybe reports whether the named injection point should fire a fault at
// this trial. It is the single primitive every substrate compiles in; when
// the engine is disabled it is one atomic load.
func Maybe(name string) bool {
	if !on.Load() {
		return false
	}
	p := pointFor(name)
	trial := p.trials.Add(1) - 1
	r := p.rate()
	if r <= 0 {
		return false
	}
	h := Mix64(uint64(seed.Load()) ^ p.hash ^ Mix64(uint64(trial)))
	// Compare the top 53 bits against the rate as a dyadic fraction.
	if float64(h>>11)/float64(1<<53) < r {
		p.fires.Add(1)
		return true
	}
	return false
}

// Backoff returns the sleep before retry n (n ≥ 1) of the operation
// identified by nonce: base doubled per retry and capped at max, then
// half-jittered — uniform in [d/2, d] as a pure function of (seed, nonce,
// n) — so synchronized retriers spread out instead of retrying in
// lockstep, and a pinned seed reproduces the exact schedule. It is the
// one jittered backoff shared by the fork-join job's chunk retries and the
// STM's conflict aborts.
func Backoff(base, max time.Duration, n int, seed int64, nonce uint64) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := Mix64(uint64(seed) ^ Mix64(nonce<<8^uint64(n)))
	frac := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	half := d / 2
	return half + time.Duration(frac*float64(half))
}

func (p *point) rate() float64 {
	if b := p.override.Load(); b != 0 {
		return math.Float64frombits(b - 1)
	}
	return math.Float64frombits(rateBits.Load())
}

// Fail returns an *InjectedError when the named point fires, nil
// otherwise — the form IO-shaped injection sites use.
func Fail(name string) error {
	if !on.Load() {
		return nil
	}
	if !Maybe(name) {
		return nil
	}
	return &InjectedError{Point: name}
}

// InjectedError is the typed error produced by firing injection points, so
// failure-handling layers (TaskError causes, the harness's panic value) can
// distinguish injected faults from organic ones.
type InjectedError struct {
	Point string
}

// Error implements error.
func (e *InjectedError) Error() string { return "chaos: injected fault at " + e.Point }

// PointStat describes one registered injection point's counters.
type PointStat struct {
	Name   string
	Trials int64
	Fires  int64
}

// Stats returns every registered point's counters, sorted by name. A point
// registers on its first trial, so an empty stats list under an enabled
// sweep means the instrumented code paths never executed.
func Stats() []PointStat {
	var out []PointStat
	points.Range(func(_, v any) bool {
		p := v.(*point)
		out = append(out, PointStat{Name: p.name, Trials: p.trials.Load(), Fires: p.fires.Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FireCount returns how many times the named point has fired since the
// last Configure.
func FireCount(name string) int64 { return pointFor(name).fires.Load() }

package core

import (
	"sync"
	"time"
)

// Fault describes one misbehavior the FaultInjector applies to matching
// iterations: an artificial delay, an injected error, an injected panic, or
// any combination (delay first, then panic, then error).
type Fault struct {
	// Suite / Benchmark restrict the fault to one benchmark; empty
	// matches any.
	Suite     string
	Benchmark string
	// Iteration is the phase-local iteration index to hit; -1 hits every
	// iteration of the selected phase.
	Iteration int
	// Warmup selects the warmup phase instead of the steady state.
	Warmup bool
	// Delay is slept before the iteration body runs, counting toward the
	// iteration duration and the benchmark deadline.
	Delay time.Duration
	// Err, when non-nil, is returned as the iteration's error.
	Err error
	// Panic, when non-nil, is the value panicked with.
	Panic any
}

func (f *Fault) matches(ev IterationEvent) bool {
	if f.Suite != "" && f.Suite != ev.Suite {
		return false
	}
	if f.Benchmark != "" && f.Benchmark != ev.Benchmark {
		return false
	}
	if f.Warmup != ev.Warmup {
		return false
	}
	return f.Iteration < 0 || f.Iteration == ev.Index
}

// FaultInjector is a measurement plugin that injects configurable delays,
// errors, and panics into benchmark iterations, so the harness's panic
// isolation, deadline enforcement, and graceful degradation are testable
// deterministically (and demonstrable from the CLI via -fault).
type FaultInjector struct {
	Base

	mu       sync.Mutex
	faults   []Fault
	injected int
}

// NewFaultInjector returns an injector armed with the given faults.
func NewFaultInjector(faults ...Fault) *FaultInjector {
	return &FaultInjector{faults: faults}
}

// Injected returns how many faults have fired so far.
func (fi *FaultInjector) Injected() int {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.injected
}

// BeforeIteration implements Interceptor: it applies the first matching
// fault (delay, then panic, then error).
func (fi *FaultInjector) BeforeIteration(ev IterationEvent) error {
	fi.mu.Lock()
	var hit *Fault
	for i := range fi.faults {
		if fi.faults[i].matches(ev) {
			hit = &fi.faults[i]
			fi.injected++
			break
		}
	}
	fi.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Delay > 0 {
		time.Sleep(hit.Delay)
	}
	if hit.Panic != nil {
		panic(hit.Panic)
	}
	return hit.Err
}

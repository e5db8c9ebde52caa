package core

import (
	"fmt"
	"sync"
)

// This file provides ready-made measurement plugins (paper §2.2: "the
// harness also provides an interface for custom measurement plugins, which
// can latch onto benchmark execution events to perform additional
// operations").

// FailureLogger records iteration errors (the harness's dead-simple
// data-race/validation triage plugin).
type FailureLogger struct {
	Base

	mu       sync.Mutex
	failures []string
}

// AfterIteration implements Plugin.
func (p *FailureLogger) AfterIteration(ev IterationEvent) {
	if ev.Err == nil {
		return
	}
	p.mu.Lock()
	p.failures = append(p.failures,
		fmt.Sprintf("%s/%s iteration %d: %v", ev.Suite, ev.Benchmark, ev.Index, ev.Err))
	p.mu.Unlock()
}

// Failures returns the recorded failure descriptions.
func (p *FailureLogger) Failures() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.failures...)
}

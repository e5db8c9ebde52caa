// Package core implements the Renaissance benchmark harness (paper §2.2):
// benchmark registration, warmup and steady-state execution, measurement
// plugins that latch onto benchmark execution events, and result
// collection. It is the Go counterpart of the paper's harness that "allows
// to run the benchmarks and collect the results, and also allows to easily
// add new benchmarks".
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Suite names used throughout the repository. Renaissance is the paper's
// contribution; the other three are the from-scratch baseline suites that
// play the roles of DaCapo, ScalaBench, and SPECjvm2008 in the comparisons.
const (
	SuiteRenaissance = "renaissance"
	SuiteOO          = "oo"      // DaCapo-like object-oriented workloads
	SuiteFn          = "fn"      // ScalaBench-like functional workloads
	SuiteClassic     = "classic" // SPECjvm2008-like numeric kernels
)

// Config carries per-run tunables into a benchmark's Setup. SizeFactor
// scales the default workload size (1.0 = paper-like default, smaller for
// quick runs); Seed seeds every pseudo-random choice so that executions are
// deterministic (the paper's "Deterministic Execution" requirement).
type Config struct {
	SizeFactor float64
	Seed       int64
}

// DefaultConfig returns the configuration used when none is supplied.
func DefaultConfig() Config {
	return Config{SizeFactor: 1.0, Seed: 42}
}

// Scale scales n by the config's size factor, with a minimum of 1.
func (c Config) Scale(n int) int {
	v := int(float64(n) * c.SizeFactor)
	if v < 1 {
		v = 1
	}
	return v
}

// Rand returns a deterministic random source derived from the seed and a
// stream label, so independent parts of a workload draw independent but
// reproducible streams.
func (c Config) Rand(stream string) *rand.Rand {
	h := int64(14695981039346656037 & 0x7fffffffffffffff)
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
		h &= 0x7fffffffffffffff
	}
	return rand.New(rand.NewSource(c.Seed ^ h))
}

// A Workload is one set-up benchmark instance. RunIteration executes a
// single benchmark operation (the unit whose execution time is reported,
// like one "benchmark iteration" in the paper).
type Workload interface {
	RunIteration() error
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func() error

// RunIteration calls the function.
func (f WorkloadFunc) RunIteration() error { return f() }

// Validator is optionally implemented by workloads that can check the
// correctness of their accumulated results after the run (the paper's
// benchmark-correctness goal: no silent data races or wrong results).
type Validator interface {
	Validate() error
}

// Closer is optionally implemented by workloads that hold resources
// (servers, pools) needing teardown.
type Closer interface {
	Close() error
}

// Spec describes a benchmark: its identity (Table 1 row), its default
// execution shape, and its factory.
type Spec struct {
	Name        string
	Suite       string
	Description string
	// Focus mirrors Table 1's "Focus" column, e.g. "actors, message-passing".
	Focus []string
	// Warmup and Measured are the default iteration counts for the warmup
	// and steady-state phases (§4.1: "all benchmarks have a warm-up phase;
	// execution after the warmup is classified as steady-state").
	Warmup   int
	Measured int
	// Timeout is the deadline for one full run of this benchmark (setup +
	// warmup + steady state + validation). Zero means no deadline; the
	// runner's TimeoutOverride takes precedence when set. A run exceeding
	// its deadline is abandoned and reported with StatusTimeout.
	Timeout time.Duration
	// Setup builds the workload for the given configuration.
	Setup func(cfg Config) (Workload, error)
}

func (s *Spec) validate() error {
	switch {
	case s.Name == "":
		return errors.New("core: spec has empty name")
	case s.Suite == "":
		return fmt.Errorf("core: spec %q has empty suite", s.Name)
	case s.Setup == nil:
		return fmt.Errorf("core: spec %q has nil Setup", s.Name)
	case s.Warmup < 0 || s.Measured <= 0:
		return fmt.Errorf("core: spec %q has invalid iteration counts", s.Name)
	}
	return nil
}

// Registry holds a set of benchmark specs keyed by suite and name.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]*Spec // key: suite + "/" + name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]*Spec)}
}

// Global is the process-wide registry the suite packages register into.
var Global = NewRegistry()

// Register adds a spec to the registry. It panics on invalid specs or
// duplicate registration, both of which are programming errors in a suite
// package's init.
func (r *Registry) Register(s Spec) {
	if err := s.validate(); err != nil {
		panic(err)
	}
	key := s.Suite + "/" + s.Name
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[key]; dup {
		panic(fmt.Sprintf("core: duplicate benchmark %s", key))
	}
	sc := s
	r.specs[key] = &sc
}

// Register adds a spec to the global registry.
func Register(s Spec) { Global.Register(s) }

// Lookup finds a spec by suite and name.
func (r *Registry) Lookup(suite, name string) (*Spec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[suite+"/"+name]
	return s, ok
}

// BySuite returns the specs of one suite, sorted by name.
func (r *Registry) BySuite(suite string) []*Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Spec
	for _, s := range r.specs {
		if s.Suite == suite {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns every spec, sorted by suite then name.
func (r *Registry) All() []*Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Spec, 0, len(r.specs))
	for _, s := range r.specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// IterationEvent describes one executed iteration, passed to plugins.
type IterationEvent struct {
	Benchmark string
	Index     int  // iteration index within its phase
	Warmup    bool // true during the warmup phase
	Duration  time.Duration
}

// Plugin latches onto benchmark execution events (paper §2.2: "the harness
// also provides an interface for custom measurement plugins, which can
// latch onto benchmark execution events"). All methods are optional via
// the Base embedding.
type Plugin interface {
	BeforeBenchmark(spec *Spec)
	AfterIteration(ev IterationEvent)
	AfterBenchmark(spec *Spec, res *Result)
}

// Base is a no-op Plugin for embedding.
type Base struct{}

// BeforeBenchmark implements Plugin.
func (Base) BeforeBenchmark(*Spec) {}

// AfterIteration implements Plugin.
func (Base) AfterIteration(IterationEvent) {}

// AfterBenchmark implements Plugin.
func (Base) AfterBenchmark(*Spec, *Result) {}

package renaissance

import (
	"fmt"
	"sync"

	"renaissance/internal/core"
	"renaissance/internal/metrics"
	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
)

func init() {
	register("dotty",
		"Compiles a minilang source corpus with the full compiler pipeline.",
		[]string{"data-structures", "synchronization"}, newDotty)
}

// dottyWorkload compiles a corpus of source units (lex, parse, typecheck,
// codegen) and executes each compiled unit, with a shared symbol cache
// guarded by a mutex — the compiler-as-benchmark shape of the original
// dotty workload.
type dottyWorkload struct {
	corpus []string
	want   []int64 // per-unit expected checksums (computed at setup)

	mu    sync.Mutex
	cache map[string]int
}

func newDotty(cfg core.Config) (core.Workload, error) {
	w := &dottyWorkload{
		corpus: minilang.Corpus(cfg.Scale(24)),
		cache:  make(map[string]int),
	}
	for i, src := range w.corpus {
		p, err := minilang.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("dotty: corpus unit %d: %w", i, err)
		}
		// Setup cross-checks the interpreter tiers on every unit: the
		// baseline tier-0 checksum is the reference, and a run with
		// quickening forced must agree before the measured iterations
		// (which use the configured default tier) are trusted.
		vm0 := rvm.NewInterp(p)
		vm0.Tier = rvm.TierBaseline
		v, err := vm0.Run()
		if err != nil {
			return nil, fmt.Errorf("dotty: corpus unit %d run: %w", i, err)
		}
		vm1 := rvm.NewInterp(p)
		vm1.Tier = rvm.TierQuick
		v1, err := vm1.Run()
		if err != nil {
			return nil, fmt.Errorf("dotty: corpus unit %d tier-1 run: %w", i, err)
		}
		if !v.Equal(v1) || vm0.Counters != vm1.Counters {
			return nil, fmt.Errorf("dotty: corpus unit %d tier divergence: tier0=%v tier1=%v", i, v, v1)
		}
		w.want = append(w.want, v.AsInt())
	}
	return w, nil
}

func (w *dottyWorkload) RunIteration() error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(w.corpus))
	// Compile units concurrently, the way a compiler daemon compiles
	// multiple files, sharing a lock-guarded cache of unit fingerprints.
	sem := make(chan struct{}, 4)
	for i, src := range w.corpus {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p, err := minilang.Compile(src)
			if err != nil {
				errCh <- err
				return
			}
			vm := rvm.NewInterp(p)
			v, err := vm.Run()
			recordCounters(vm.Counters)
			if err != nil {
				errCh <- err
				return
			}
			if v.AsInt() != w.want[i] {
				errCh <- fmt.Errorf("dotty: unit %d checksum %d, want %d", i, v.AsInt(), w.want[i])
				return
			}
			w.mu.Lock()
			w.cache[src[:24]] = int(v.AsInt())
			w.mu.Unlock()
		}(i, src)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	return nil
}

// recordCounters forwards one guest execution's event counts to the
// paper's metric recorder, once per unit rather than once per operation.
func recordCounters(c rvm.Counters) {
	metrics.AddObject(c.Object)
	metrics.AddArray(c.Array)
	metrics.AddMethod(c.Method)
	metrics.AddIDynamic(c.IDynamic)
	metrics.Default.Add(metrics.Synch, c.Synch)
	metrics.AddAtomic(c.Atomic)
}

// Validate checks that every corpus unit's fingerprint is cached with
// the checksum setup computed for it.
func (w *dottyWorkload) Validate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, src := range w.corpus {
		got, ok := w.cache[src[:24]]
		if !ok {
			return fmt.Errorf("dotty: unit %d was never compiled", i)
		}
		if int64(got) != w.want[i] {
			return fmt.Errorf("dotty: unit %d cached checksum %d, want %d", i, got, w.want[i])
		}
	}
	return nil
}

package renaissance

import (
	"fmt"
	"runtime"
	"sync"

	"renaissance/internal/core"
	"renaissance/internal/stm"
)

func init() {
	register("philosophers",
		"Dining philosophers on the TL2 software transactional memory.",
		[]string{"STM", "atomics", "guarded blocks"}, newPhilosophers)
	register("stm-bench7",
		"Mixed STM operations over a shared object graph with invariants.",
		[]string{"STM", "atomics"}, newSTMBench7)
}

// stmWorkers is the STM workloads' worker count: GOMAXPROCS at setup, so
// a run at a different GOMAXPROCS varies contention, and at least min.
func stmWorkers(min int) int {
	return max(runtime.GOMAXPROCS(0), min)
}

type philosophersWorkload struct {
	philosophers int
	meals        int
	eaten        []*stm.Ref
}

func newPhilosophers(cfg core.Config) (core.Workload, error) {
	return &philosophersWorkload{
		// The paper's table runs five philosophers; scale up with
		// GOMAXPROCS so wider machines see more fork contention.
		philosophers: stmWorkers(5),
		meals:        cfg.Scale(120),
	}, nil
}

func (w *philosophersWorkload) RunIteration() error {
	n := w.philosophers
	forks := make([]*stm.Ref, n)
	w.eaten = make([]*stm.Ref, n)
	for i := range forks {
		forks[i] = stm.NewRef(false) // false = free
		w.eaten[i] = stm.NewRef(0)
	}

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			left, right := forks[p], forks[(p+1)%n]
			mine := w.eaten[p]
			for m := 0; m < w.meals; m++ {
				// Acquire both forks atomically, retrying (blocking on the
				// STM's guarded-block wait) while either is taken.
				_ = stm.Atomically(func(tx *stm.Tx) error {
					if tx.Read(left).(bool) || tx.Read(right).(bool) {
						tx.Retry()
					}
					tx.Write(left, true)
					tx.Write(right, true)
					return nil
				})
				// Eat, then release.
				_ = stm.Atomically(func(tx *stm.Tx) error {
					tx.Write(mine, tx.Read(mine).(int)+1)
					tx.Write(left, false)
					tx.Write(right, false)
					return nil
				})
			}
		}(p)
	}
	wg.Wait()
	return nil
}

func (w *philosophersWorkload) Validate() error {
	for p, ref := range w.eaten {
		if got := stm.ReadAtomic(ref).(int); got != w.meals {
			return fmt.Errorf("philosophers: philosopher %d ate %d meals, want %d", p, got, w.meals)
		}
	}
	return nil
}

// sbMix is an STMBench7-style operation mix, in percent: short transfers
// (the frequent small write), long read-only traversals of the whole
// graph, and regional updates (balanced multi-ref mutations within one
// assembly, bumping its version stamp). The remainder up to 100 falls to
// transfers.
type sbMix struct {
	traversalPct int
	regionalPct  int
}

var sbMixDefault = sbMix{traversalPct: 25, regionalPct: 25}

// sbAssembly is one node of the STMBench7-like object graph: a tree of
// assemblies whose leaves own the atomic parts (value refs under the sum
// invariant). Every assembly carries a version-stamp ref that regional
// updates bump and traversals read, so a full traversal's read set covers
// the whole structure, not just the leaves — the shape that exercises TL2
// timestamp extension.
type sbAssembly struct {
	stamp    *stm.Ref // int, bumped by regional updates
	children []*sbAssembly
	parts    []*stm.Ref // leaf atomic parts; non-nil only at the bottom
}

const (
	sbFanout = 3
	sbDepth  = 3 // 3^3 = 27 bottom assemblies
)

// stmBench7Workload mirrors STMBench7's mix over a deep shared object
// graph, traversed and mutated by concurrent transactions, with a global
// sum invariant (mutations are balanced transfers).
type stmBench7Workload struct {
	root    *sbAssembly
	bottom  []*sbAssembly // assemblies that own parts
	leaves  []*stm.Ref    // all atomic parts, flat
	total   int
	ops     int
	workers int
	mix     sbMix
}

func newSTMBench7(cfg core.Config) (core.Workload, error) {
	return newSTMBench7Mix(cfg, sbMixDefault)
}

// newSTMBench7Mix builds the workload with an explicit operation mix; the
// tests run a read-mostly and a write-heavy mix through it without
// altering the registered Table 1 inventory.
func newSTMBench7Mix(cfg core.Config, mix sbMix) (core.Workload, error) {
	nLeaves := cfg.Scale(216)
	if nLeaves < 8 {
		nLeaves = 8
	}
	w := &stmBench7Workload{
		ops:     cfg.Scale(400),
		workers: stmWorkers(2),
		mix:     mix,
	}
	perBottom := nLeaves / intPow(sbFanout, sbDepth)
	if perBottom < 1 {
		perBottom = 1
	}
	w.root = w.buildAssembly(sbDepth, perBottom)
	return w, nil
}

func intPow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= b
	}
	return n
}

func (w *stmBench7Workload) buildAssembly(depth, perBottom int) *sbAssembly {
	a := &sbAssembly{stamp: stm.NewRef(0)}
	if depth == 0 {
		a.parts = make([]*stm.Ref, perBottom)
		for i := range a.parts {
			a.parts[i] = stm.NewRef(100)
			w.total += 100
			w.leaves = append(w.leaves, a.parts[i])
		}
		w.bottom = append(w.bottom, a)
		return a
	}
	a.children = make([]*sbAssembly, sbFanout)
	for i := range a.children {
		a.children[i] = w.buildAssembly(depth-1, perBottom)
	}
	return a
}

// traverse walks the whole graph inside tx, reading every assembly stamp
// and summing every atomic part.
func traverse(tx *stm.Tx, a *sbAssembly) int {
	_ = tx.Read(a.stamp)
	sum := 0
	for _, p := range a.parts {
		sum += tx.Read(p).(int)
	}
	for _, c := range a.children {
		sum += traverse(tx, c)
	}
	return sum
}

func (w *stmBench7Workload) RunIteration() error {
	var wg sync.WaitGroup
	n := len(w.leaves)
	errs := make([]error, w.workers)
	for g := 0; g < w.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			state := uint64(g*2654435761 + 12345)
			next := func(bound int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(bound))
			}
			for i := 0; i < w.ops; i++ {
				p := next(100)
				switch {
				case p < w.mix.traversalPct:
					// Long read-only structural traversal: must always
					// observe the invariant, even while short transfers
					// commit underneath (timestamp extension keeps this
					// from livelocking).
					if err := stm.Atomically(func(tx *stm.Tx) error {
						if sum := traverse(tx, w.root); sum != w.total {
							return fmt.Errorf("stm-bench7: snapshot sum %d != %d", sum, w.total)
						}
						return nil
					}); err != nil && errs[g] == nil {
						errs[g] = err
					}
				case p < w.mix.traversalPct+w.mix.regionalPct:
					// Regional update: balanced transfers inside one
					// bottom assembly, stamping it.
					a := w.bottom[next(len(w.bottom))]
					if len(a.parts) < 2 {
						continue
					}
					_ = stm.Atomically(func(tx *stm.Tx) error {
						for k := 0; k+1 < len(a.parts); k += 2 {
							src, dst := a.parts[k], a.parts[k+1]
							sv := tx.Read(src).(int)
							dv := tx.Read(dst).(int)
							tx.Write(src, sv-2)
							tx.Write(dst, dv+2)
						}
						tx.Write(a.stamp, tx.Read(a.stamp).(int)+1)
						return nil
					})
				default:
					// Short transfer: the frequent small operation.
					a, b := next(n), next(n)
					if a == b {
						continue
					}
					_ = stm.Atomically(func(tx *stm.Tx) error {
						av := tx.Read(w.leaves[a]).(int)
						bv := tx.Read(w.leaves[b]).(int)
						tx.Write(w.leaves[a], av-1)
						tx.Write(w.leaves[b], bv+1)
						return nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *stmBench7Workload) Validate() error {
	sum := 0
	for _, r := range w.leaves {
		sum += stm.ReadAtomic(r).(int)
	}
	if sum != w.total {
		return fmt.Errorf("stm-bench7: final sum %d, want %d (invariant broken)", sum, w.total)
	}
	return nil
}

// Package taskbench is a cross-substrate oracle in the style of Task Bench
// (Slaughter et al., arXiv:1908.05790): one task graph, given as each
// node's dependencies, runs on every substrate that schedules work onto
// the shared runtime — fork–join tasks, the chunked parallel-for, futures
// and actors — and every node's checksum must equal the one a sequential
// walk of the graph computes. A node's checksum hashes its id with its
// dependencies' checksums in order, so a node run before its inputs, run
// twice with different inputs, or not run at all shows as a mismatch.
// The package has only tests.
package taskbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/actors"
	"renaissance/internal/chaos"
	"renaissance/internal/forkjoin"
	"renaissance/internal/futures"
)

// graph is a task graph in topological order: every dependency of node i
// is a node below i, and every dependency of a node in levels[k] is in an
// earlier level.
type graph struct {
	name   string
	deps   [][]int
	levels [][]int
}

func (g *graph) add(level int, deps ...int) {
	for len(g.levels) <= level {
		g.levels = append(g.levels, nil)
	}
	g.levels[level] = append(g.levels[level], len(g.deps))
	g.deps = append(g.deps, deps)
}

// stencil is Task Bench's 1-D stencil: width points for steps steps, each
// point depending on itself and its two neighbours one step earlier.
func stencil(width, steps int) *graph {
	g := &graph{name: "stencil"}
	for t := 0; t < steps; t++ {
		for i := 0; i < width; i++ {
			var deps []int
			if t > 0 {
				for _, j := range []int{i - 1, i, i + 1} {
					if j >= 0 && j < width {
						deps = append(deps, (t-1)*width+j)
					}
				}
			}
			g.add(t, deps...)
		}
	}
	return g
}

// tree is a binary reduction tree of the given depth: 2^depth leaves, and
// every inner node depending on its two children.
func tree(depth int) *graph {
	g := &graph{name: "tree"}
	for i := 0; i < 1<<depth; i++ {
		g.add(0)
	}
	below := g.levels[0]
	for level := 1; level <= depth; level++ {
		for j := 0; j < len(below); j += 2 {
			g.add(level, below[j], below[j+1])
		}
		below = g.levels[level]
	}
	return g
}

// checksum is node id's value given its dependencies' values in order. A
// few rounds of mixing stand in for a task body.
func checksum(id int, in []uint64) uint64 {
	h := chaos.Mix64(uint64(id) + 1)
	for _, v := range in {
		h = chaos.Mix64(h ^ v)
	}
	for range 32 {
		h = chaos.Mix64(h)
	}
	return h
}

// node computes node id from sums, whose entries for its dependencies are
// final.
func (g *graph) node(id int, sums []uint64) uint64 {
	in := make([]uint64, len(g.deps[id]))
	for k, d := range g.deps[id] {
		in[k] = sums[d]
	}
	return checksum(id, in)
}

func sequential(g *graph) []uint64 {
	sums := make([]uint64, len(g.deps))
	for id := range sums {
		sums[id] = g.node(id, sums)
	}
	return sums
}

// forkJoin runs one Shared().Invoke root that forks a task per node of a
// level and joins them all before the next level.
func forkJoin(g *graph) []uint64 {
	sums := make([]uint64, len(g.deps))
	forkjoin.Shared().Invoke(func(w *forkjoin.Worker) any {
		for _, level := range g.levels {
			tasks := make([]*forkjoin.Task, len(level))
			for k, id := range level {
				tasks[k] = w.Fork(func(*forkjoin.Worker) any {
					sums[id] = g.node(id, sums)
					return nil
				})
			}
			for k := len(tasks) - 1; k >= 0; k-- {
				w.Join(tasks[k])
			}
		}
		return nil
	})
	return sums
}

// parallelFor runs each level as one ForRetryE over its nodes.
func parallelFor(g *graph) []uint64 {
	sums := make([]uint64, len(g.deps))
	for _, level := range g.levels {
		if err := forkjoin.Shared().ForRetryE(len(level), 1, 0, 0, func(lo, hi, _ int) {
			for _, id := range level[lo:hi] {
				sums[id] = g.node(id, sums)
			}
		}); err != nil {
			panic(err)
		}
	}
	return sums
}

// asyncAwait runs the graph as a chain of Async bodies, one a level: the
// body of level k Asyncs a future per node of the level, Awaits them
// through one Sequence, then Asyncs the body of level k+1 and Awaits it.
// Every future is Awaited only where it was made, the fork/join
// discipline: a body that Awaited a dependency's future made elsewhere
// could, while it helps, pick up a dependent that Awaits the body itself.
func asyncAwait(g *graph) []uint64 {
	sums := make([]uint64, len(g.deps))
	var level func(k int) (int, error)
	level = func(k int) (int, error) {
		fs := make([]*futures.Future[uint64], len(g.levels[k]))
		for i, id := range g.levels[k] {
			fs[i] = futures.Async(func() (uint64, error) { return g.node(id, sums), nil })
		}
		vs, err := futures.Sequence(fs).Await()
		if err != nil {
			return k, err
		}
		for i, id := range g.levels[k] {
			sums[id] = vs[i]
		}
		if k+1 == len(g.levels) {
			return k, nil
		}
		return futures.Async(func() (int, error) { return level(k + 1) }).Await()
	}
	if _, err := futures.Async(func() (int, error) { return level(0) }).Await(); err != nil {
		panic(err)
	}
	return sums
}

// input is what an actor node receives: a dependency's checksum, or
// (from < 0) the start signal of a node with no dependencies.
type input struct {
	from int
	sum  uint64
}

// actorNodes makes every node an actor that computes once it holds all
// its inputs and sends its checksum to its dependents with Context.Send;
// AwaitQuiescence ends the run.
func actorNodes(g *graph) []uint64 {
	sums, _ := actorGraph(g)
	return sums
}

// actorGraph is actorNodes that also returns how many messages its
// actors had received when AwaitQuiescence returned.
func actorGraph(g *graph) ([]uint64, int64) {
	n := len(g.deps)
	dependents := make([][]int, n)
	for id, deps := range g.deps {
		for _, d := range deps {
			dependents[d] = append(dependents[d], id)
		}
	}
	sys := actors.NewSystem(0)
	defer sys.Shutdown()
	sums := make([]uint64, n)
	refs := make([]*actors.Ref, n)
	var delivered atomic.Int64
	for id := range refs {
		deps := g.deps[id]
		in := make([]uint64, len(deps))
		have := 0
		refs[id] = sys.Spawn("node", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			delivered.Add(1)
			m := msg.(input)
			for k, d := range deps {
				if d == m.from {
					in[k] = m.sum
					have++
				}
			}
			if have < len(deps) {
				return
			}
			sums[id] = checksum(id, in)
			for _, to := range dependents[id] {
				ctx.Send(refs[to], input{id, sums[id]})
			}
		}))
	}
	for id, deps := range g.deps {
		if len(deps) == 0 {
			refs[id].Tell(input{from: -1})
		}
	}
	sys.AwaitQuiescence()
	return sums, delivered.Load()
}

// messages is how many messages actorGraph sends over g: one per edge,
// and a start signal per node without dependencies.
func messages(g *graph) int64 {
	var n int64
	for _, deps := range g.deps {
		n += int64(max(len(deps), 1))
	}
	return n
}

var substrates = []struct {
	name string
	run  func(*graph) []uint64
}{
	{"forkjoin", forkJoin},
	{"for", parallelFor},
	{"futures", asyncAwait},
	{"actors", actorNodes},
}

// Every substrate computes every node's checksum exactly as the
// sequential walk does, on both graphs, at GOMAXPROCS 1 and 2.
func TestTaskGraphOracle(t *testing.T) {
	graphs := []*graph{stencil(16, 32), tree(9)}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, g := range graphs {
			want := sequential(g)
			for _, s := range substrates {
				name := fmt.Sprintf("procs=%d/%s/%s", procs, g.name, s.name)
				done := make(chan []uint64, 1)
				go func() { done <- s.run(g) }()
				select {
				case got := <-done:
					for id := range want {
						if got[id] != want[id] {
							t.Errorf("%s: node %d checksum %#x, want %#x", name, id, got[id], want[id])
							break
						}
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s did not finish within 30 s", name)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// Two actor Systems, futures bodies and a fork–join tree run at once on
// the one shared pool, at GOMAXPROCS 1 and 2: each System's
// AwaitQuiescence returns with exactly its own messages delivered, and
// every substrate's checksums match the sequential walk. Futures bodies
// that Await help the pool, so they also run actor batches off it.
func TestTaskGraphSubstratesShareOnePool(t *testing.T) {
	g := tree(7)
	want := sequential(g)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for round := range 5 {
			var delivered [2]int64
			runs := []func() []uint64{
				func() []uint64 { sums, n := actorGraph(g); delivered[0] = n; return sums },
				func() []uint64 { sums, n := actorGraph(g); delivered[1] = n; return sums },
				func() []uint64 { return asyncAwait(g) },
				func() []uint64 { return forkJoin(g) },
			}
			got := make([][]uint64, len(runs))
			var wg sync.WaitGroup
			for k, run := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[k] = run()
				}()
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("procs=%d round %d: the substrates did not finish within 30 s", procs, round)
			}
			for i, n := range delivered {
				if n != messages(g) {
					t.Errorf("procs=%d round %d: System %d quiesced with %d of %d messages delivered", procs, round, i, n, messages(g))
				}
			}
			for k, sums := range got {
				for id := range want {
					if sums[id] != want[id] {
						t.Errorf("procs=%d round %d: run %d: node %d checksum %#x, want %#x", procs, round, k, id, sums[id], want[id])
						break
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

package renaissance

import (
	"fmt"
	"sync/atomic"

	"renaissance/internal/actors"
	"renaissance/internal/core"
)

func init() {
	register("akka-uct",
		"Unbalanced Cobwebbed Tree computation on the actor runtime.",
		[]string{"actors", "message-passing"},
		newAkkaUCT)
	register("reactors",
		"A set of message-passing workloads (ping-pong, fan-in counting, pipelines).",
		[]string{"actors", "message-passing", "critical sections"},
		newReactors)
}

// uctWorkload expands an unbalanced tree of actors: every visited node
// spawns a deterministic, skewed number of children, reproducing the UCT
// benchmark's non-uniform actor load.
type uctWorkload struct {
	maxDepth int
	expected int64
	visits   atomic.Int64
}

// The tree's depth is a constant: the size factor does not reach this
// workload (ROADMAP item 2 carries making it scale).
func newAkkaUCT(core.Config) (core.Workload, error) {
	w := &uctWorkload{maxDepth: 9}
	w.expected = countUCTNodes(0, 1, w.maxDepth)
	return w, nil
}

// fanout gives the deterministic, skewed child count of a node: wide near
// one flank of the tree, narrow elsewhere (the "unbalanced cobweb"). The
// expected branching factor is kept above 1 so the bounded-depth tree
// stays supercritical.
func fanout(depth int, path int64) int {
	if depth < 3 {
		return 3 // full crown: the tree cannot die out near the root
	}
	h := uint64(path)*1099511628211 + uint64(depth)*0x9E3779B97F4A7C15
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	switch h % 7 {
	case 0, 1:
		return 0
	case 2, 3:
		return 1
	case 4, 5:
		return 2
	default:
		return 3
	}
}

func countUCTNodes(depth int, path int64, maxDepth int) int64 {
	n := int64(1)
	if depth >= maxDepth {
		return n
	}
	k := fanout(depth, path)
	for c := 0; c < k; c++ {
		n += countUCTNodes(depth+1, path*4+int64(c)+1, maxDepth)
	}
	return n
}

type uctVisit struct {
	depth int
	path  int64
}

func (w *uctWorkload) RunIteration() error {
	w.visits.Store(0)
	sys := actors.NewSystem(4)
	defer sys.Shutdown()

	// One boxed strategy for the whole tree: converting the literal per
	// child allocated 16 bytes a spawn.
	var strategy actors.Strategy = actors.OneForOne{MaxRestarts: 3, Overflow: actors.Escalate}
	var behavior actors.ReceiverFunc
	behavior = func(ctx *actors.Context, msg any) {
		v := msg.(uctVisit)
		w.visits.Add(1)
		if v.depth >= w.maxDepth {
			return
		}
		k := fanout(v.depth, v.path)
		for c := 0; c < k; c++ {
			// Children join their parent's fault domain: a panicking node
			// (e.g. chaos-injected) restarts with its mailbox intact
			// instead of stopping the whole tree computation; the behavior
			// is stateless, so restart resumes it as it is.
			child := ctx.SpawnWith("uct", behavior, actors.SpawnOpts{
				Supervisor: ctx.Self(),
				Strategy:   strategy,
			})
			// ctx.Send pushes onto this worker's own run queue (no inject
			// contention); idle workers steal the surplus.
			ctx.Send(child, uctVisit{v.depth + 1, v.path*4 + int64(c) + 1})
		}
	}
	root := sys.Spawn("root", behavior)
	root.Tell(uctVisit{0, 1})
	sys.AwaitQuiescence()
	if got := w.visits.Load(); got != w.expected {
		return fmt.Errorf("akka-uct: visited %d nodes, expected %d", got, w.expected)
	}
	return nil
}

func (w *uctWorkload) Validate() error {
	if w.expected < 10 {
		return fmt.Errorf("akka-uct: degenerate tree of %d nodes", w.expected)
	}
	return nil
}

// reactorsWorkload runs three message-passing micro-protocols per
// iteration: ping-pong pairs, a fan-in counter, and a forwarding pipeline.
type reactorsWorkload struct {
	rounds int
	pairs  int
	total  atomic.Int64
}

func newReactors(cfg core.Config) (core.Workload, error) {
	return &reactorsWorkload{
		rounds: cfg.Scale(300),
		pairs:  4,
	}, nil
}

func (w *reactorsWorkload) RunIteration() error {
	sys := actors.NewSystem(4)
	defer sys.Shutdown()

	// Ping-pong pairs.
	done := make(chan int, w.pairs)
	for p := 0; p < w.pairs; p++ {
		pong := sys.Spawn("pong", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			ctx.Reply(msg.(int) + 1)
		}))
		var ping *actors.Ref
		rounds := w.rounds
		ping = sys.Spawn("ping", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			n := msg.(int)
			if n >= rounds {
				done <- n
				return
			}
			ctx.Send(pong, n)
		}))
		ping.Tell(0)
	}

	// Fan-in: many producers, one counter.
	counter := sys.Spawn("counter", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
		w.total.Add(int64(msg.(int)))
	}))
	for p := 0; p < 8; p++ {
		p := p
		producer := sys.Spawn("producer", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			for i := 0; i < w.rounds/8; i++ {
				ctx.Send(counter, p+1)
			}
		}))
		producer.Tell("go")
	}

	// Pipeline: forward a token through a chain.
	const chainLen = 16
	final := sys.Spawn("sink", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
		w.total.Add(1)
	}))
	next := final
	for i := 0; i < chainLen; i++ {
		target := next
		next = sys.Spawn("stage", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			ctx.Send(target, msg)
		}))
	}
	for i := 0; i < w.rounds/4; i++ {
		next.Tell(i)
	}

	for p := 0; p < w.pairs; p++ {
		<-done
	}
	sys.AwaitQuiescence()
	return nil
}

func (w *reactorsWorkload) Validate() error {
	if w.total.Load() == 0 {
		return fmt.Errorf("reactors: no messages accounted")
	}
	return nil
}

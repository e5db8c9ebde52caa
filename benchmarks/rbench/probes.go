package rbench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"renaissance/internal/core"
	"renaissance/internal/forkjoin"
	"renaissance/internal/futures"
	"renaissance/internal/lin"
	"renaissance/internal/metrics"
	"renaissance/internal/rdd"
	"renaissance/internal/stats"
	"renaissance/internal/streams"
)

// A probe times calls into one layer's exported functions and yields one
// value per metric it names. Work amounts are fixed counts (scaled only
// by Options.Scale), inputs come from the run's seed, and at most nproc
// goroutines run at once. A probe's value is the median of five
// repetitions; a once-probe is a single longer measurement.
type probe struct {
	metrics []MetricDef
	once    bool
	run     func(pc *probeCtx) ([]float64, error)
}

type probeCtx struct {
	seed  int64
	scale float64
	procs int
}

// n scales a work amount.
func (pc *probeCtx) n(base int) int { return scaleWork(base, pc.scale) }

// ints returns n pseudo-random non-negative ints from the seed.
func (pc *probeCtx) ints(stream string, n int) []int {
	rng := core.Config{Seed: pc.seed}.Rand("rbench." + stream)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(1 << 30)
	}
	return xs
}

func (pc *probeCtx) floats(stream string, n int) []float64 {
	rng := core.Config{Seed: pc.seed}.Rand("rbench." + stream)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() - 0.5
	}
	return xs
}

// timed returns how long fn took, in nanoseconds.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t))
}

// onProcs runs fn on procs goroutines and waits for them.
func onProcs(procs int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

func defs(unit string, names ...string) []MetricDef {
	out := make([]MetricDef, len(names))
	for i, n := range names {
		out[i] = MetricDef{Name: n, Unit: unit}
	}
	return out
}

// sink keeps results the compiler could otherwise prove unused.
var sink any

const probeReps = 5

func (r *runner) runProbes(layers map[string]Metric) {
	id := r.tr.begin("probes")
	defer r.tr.end(id)
	pc := &probeCtx{seed: r.o.Seed, scale: r.o.Scale, procs: runtime.GOMAXPROCS(0)}
	for _, p := range probes {
		name := p.metrics[0].Name
		sid := r.tr.begin("probe." + name)
		reps := probeReps
		if p.once {
			reps = 1
		}
		vals := make([][]float64, len(p.metrics))
		for k := 0; k < reps; k++ {
			runtime.GC()
			r.try("probe "+name, func() error {
				v, err := p.run(pc)
				if err != nil {
					return err
				}
				if len(v) != len(p.metrics) {
					return fmt.Errorf("%d values for %d metrics", len(v), len(p.metrics))
				}
				for i := range v {
					vals[i] = append(vals[i], v[i])
				}
				return nil
			})
		}
		r.tr.end(sid)
		for i, d := range p.metrics {
			if len(vals[i]) > 0 {
				layers[d.Name] = Metric{stats.Median(vals[i]), d.Unit}
			}
		}
	}
}

// probes is every layer probe, in README order.
var probes = concat(harnessProbes, schedulerProbes, dataProbes, messagingProbes, servingProbes, stateProbes, compilerProbes)

func concat(groups ...[]probe) []probe {
	var out []probe
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var harnessProbes = []probe{
	{metrics: defs("us", "core.runner_iter_us"), run: func(pc *probeCtx) ([]float64, error) {
		// core.Runner.Run over a no-op spec: what the harness adds per
		// iteration. The workloads are driven without Runner, so this
		// moves no end-to-end metric; it keeps harness growth visible.
		n := pc.n(200_000)
		spec := &core.Spec{
			Name: "noop", Suite: "rbench", Measured: n,
			Setup: func(core.Config) (core.Workload, error) {
				return core.WorkloadFunc(func() error { return nil }), nil
			},
		}
		var err error
		ns := timed(func() { _, err = (&core.Runner{Config: core.DefaultConfig()}).Run(spec) })
		return []float64{ns / 1e3 / float64(n)}, err
	}},
	{metrics: defs("ns", "metrics.inc_ns"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(2_000_000)
		ns := timed(func() {
			onProcs(pc.procs, func(int) {
				for i := 0; i < n; i++ {
					metrics.IncAtomic()
				}
			})
		})
		return []float64{ns / float64(n)}, nil
	}},
	{metrics: defs("us", "metrics.snapshot_us"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(40_000)
		var s metrics.Snapshot
		ns := timed(func() {
			for i := 0; i < n; i++ {
				s = metrics.Default.Snapshot()
			}
		})
		sink = s
		return []float64{ns / 1e3 / float64(n)}, nil
	}},
}

var schedulerProbes = []probe{
	{metrics: defs("ns", "forkjoin.for_ns_per_chunk"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(400_000)
		ns := timed(func() { forkjoin.For(n, 1, func(lo, hi int) {}) })
		return []float64{ns / float64(n)}, nil
	}},
	{metrics: defs("ns", "forkjoin.nested_for_ns_per_chunk"), run: func(pc *probeCtx) ([]float64, error) {
		outer, inner := 64, pc.n(4096)
		ns := timed(func() {
			forkjoin.For(outer, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					forkjoin.For(inner, 1, func(lo, hi int) {})
				}
			})
		})
		return []float64{ns / float64(outer*inner)}, nil
	}},
	{metrics: defs("ns", "forkjoin.fork_join_ns_per_task"), run: func(pc *probeCtx) ([]float64, error) {
		// A binary tree of forked tasks, the fj-kmeans recursion shape.
		leaves := pc.n(1 << 17)
		var tree func(w *forkjoin.Worker, n int) int
		tree = func(w *forkjoin.Worker, n int) int {
			if n <= 1 {
				return 1
			}
			t := w.Fork(func(w *forkjoin.Worker) any { return tree(w, n/2) })
			mine := tree(w, n-n/2)
			return mine + w.Join(t).(int)
		}
		got := 0
		ns := timed(func() {
			got = forkjoin.Shared().Invoke(func(w *forkjoin.Worker) any { return tree(w, leaves) }).(int)
		})
		if got != leaves {
			return nil, fmt.Errorf("fork/join tree counted %d leaves, want %d", got, leaves)
		}
		return []float64{ns / float64(max(1, leaves-1))}, nil
	}},
	{metrics: defs("ns", "streams.parmap_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		xs := pc.ints("streams", pc.n(1_000_000))
		var out []int
		ns := timed(func() { out = streams.ParMap(xs, 0, func(x int) int { return x*3 + 1 }) })
		if len(out) != len(xs) || out[len(out)-1] != xs[len(xs)-1]*3+1 {
			return nil, fmt.Errorf("ParMap returned a wrong result")
		}
		return []float64{ns / float64(len(xs))}, nil
	}},
	{metrics: defs("ns", "streams.seq_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		xs := pc.ints("streams", pc.n(1_000_000))
		got := 0
		ns := timed(func() {
			got = streams.Reduce(streams.Map(streams.FromSlice(xs), func(x int) int { return x & 0xff }), 0,
				func(a, x int) int { return a + x })
		})
		want := 0
		for _, x := range xs {
			want += x & 0xff
		}
		if got != want {
			return nil, fmt.Errorf("stream sum %d, want %d", got, want)
		}
		return []float64{ns / float64(len(xs))}, nil
	}},
	{metrics: defs("ns", "futures.chain_ns"), run: func(pc *probeCtx) ([]float64, error) {
		// Chains of Map stages completed from the head, as the genetic
		// and finagle services compose them.
		chains, stages := pc.n(600), 100
		ns := timed(func() {
			for c := 0; c < chains; c++ {
				p := futures.NewPromise[int]()
				f := p.Future()
				for s := 0; s < stages; s++ {
					f = futures.Map(f, func(x int) int { return x + 1 })
				}
				_ = p.Success(0) // a fresh promise cannot already be completed
				if v, err := f.Await(); err != nil || v != stages {
					panic(fmt.Sprintf("future chain gave %d, %v", v, err))
				}
			}
		})
		return []float64{ns / float64(chains*stages)}, nil
	}},
	{metrics: defs("ns", "futures.sequence_ns_per_future"), run: func(pc *probeCtx) ([]float64, error) {
		batches, width := pc.n(20), 2000
		ns := timed(func() {
			for b := 0; b < batches; b++ {
				fs := make([]*futures.Future[int], width)
				for i := range fs {
					fs[i] = futures.Async(func() (int, error) { return i, nil })
				}
				if vs, err := futures.Sequence(fs).Await(); err != nil || len(vs) != width {
					panic(fmt.Sprintf("Sequence gave %d values, %v", len(vs), err))
				}
			}
		})
		return []float64{ns / float64(batches*width)}, nil
	}},
}

var dataProbes = []probe{
	{metrics: defs("ns", "rdd.narrow_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		xs := pc.ints("rdd", pc.n(1_000_000))
		got := 0
		ns := timed(func() {
			got = rdd.Map(rdd.Parallelize(xs, 8), func(x int) int { return x*3 + 1 }).
				Filter(func(x int) bool { return x&1 == 0 }).Count()
		})
		want := 0
		for _, x := range xs {
			if (x*3+1)&1 == 0 {
				want++
			}
		}
		if got != want {
			return nil, fmt.Errorf("narrow pipeline counted %d, want %d", got, want)
		}
		return []float64{ns / float64(len(xs))}, nil
	}},
	{metrics: defs("ns", "rdd.shuffle_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		xs := pc.ints("rdd", pc.n(200_000))
		const keys = 4096
		got := 0
		ns := timed(func() {
			pairs := rdd.Map(rdd.Parallelize(xs, 8), func(x int) rdd.Pair[int, int] { return rdd.KV(x%keys, 1) })
			got = rdd.ReduceByKey(pairs, 8, func(a, b int) int { return a + b }).Count()
		})
		seen := map[int]bool{}
		for _, x := range xs {
			seen[x%keys] = true
		}
		if got != len(seen) {
			return nil, fmt.Errorf("shuffle produced %d keys, want %d", got, len(seen))
		}
		return []float64{ns / float64(len(xs))}, nil
	}},
	{metrics: defs("ns", "rdd.cached_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		// Passes over a cached RDD, the inner loop of the iterative ML ops.
		xs := pc.ints("rdd", pc.n(500_000))
		const passes = 6
		cached := rdd.Map(rdd.Parallelize(xs, 8), func(x int) int { return x & 0xff }).Cache()
		want := cached.Count()
		got := 0
		ns := timed(func() {
			for p := 0; p < passes; p++ {
				got = rdd.Aggregate(cached, func() int { return 0 },
					func(a, x int) int { return a + 1 }, func(a, b int) int { return a + b })
			}
		})
		if got != want {
			return nil, fmt.Errorf("cached pass counted %d, want %d", got, want)
		}
		return []float64{ns / float64(passes*len(xs))}, nil
	}},
	{metrics: defs("us", "rdd.job_us"), run: func(pc *probeCtx) ([]float64, error) {
		// An 8-partition action over eight elements: pure job scheduling.
		r := rdd.Parallelize([]int{1, 2, 3, 4, 5, 6, 7, 8}, 8)
		jobs := pc.n(3000)
		ns := timed(func() {
			for j := 0; j < jobs; j++ {
				if r.Count() != 8 {
					panic("rdd: Count of eight elements is not 8")
				}
			}
		})
		return []float64{ns / 1e3 / float64(jobs)}, nil
	}},
	{metrics: defs("ns", "lin.dot_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		const n = 4096
		x, y := pc.floats("lin.x", n), pc.floats("lin.y", n)
		calls := pc.n(8000)
		s := 0.0
		ns := timed(func() {
			for c := 0; c < calls; c++ {
				s += lin.Dot(x, y)
			}
		})
		sink = s
		return []float64{ns / float64(calls*n)}, nil
	}},
	{metrics: defs("ns", "lin.gemv_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		const n = 256
		a := filledMat(pc, n)
		x, y := pc.floats("lin.x", n), make([]float64, n)
		calls := pc.n(500)
		ns := timed(func() {
			for c := 0; c < calls; c++ {
				lin.Gemv(y, a, x)
			}
		})
		sink = y
		return []float64{ns / float64(calls*n*n)}, nil
	}},
	{metrics: defs("ns", "lin.syr_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		const n = 128
		a := lin.NewMat(n, n)
		x := pc.floats("lin.x", n)
		calls := pc.n(4000)
		ns := timed(func() {
			for c := 0; c < calls; c++ {
				lin.Syr(a, 1e-6, x)
			}
		})
		sink = a
		return []float64{ns / float64(calls*n*(n+1)/2)}, nil
	}},
	{metrics: defs("us", "lin.cholesky_us"), run: func(pc *probeCtx) ([]float64, error) {
		// Solve a 64x64 SPD system, refilling the matrix each time
		// because the solver factors in place (the refill is timed too).
		const n = 64
		m := filledMat(pc, n)
		spd := lin.NewMat(n, n)
		lin.Syrk(spd, m)
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+n)
		}
		b, x, work := pc.floats("lin.b", n), make([]float64, n), lin.NewMat(n, n)
		solves := pc.n(600)
		ok := true
		ns := timed(func() {
			for s := 0; s < solves; s++ {
				for i := 0; i < n; i++ {
					copy(work.Row(i), spd.Row(i))
				}
				ok = lin.CholeskySolve(work, b, x) && ok
			}
		})
		if !ok {
			return nil, fmt.Errorf("CholeskySolve rejected an SPD matrix")
		}
		return []float64{ns / 1e3 / float64(solves)}, nil
	}},
}

func filledMat(pc *probeCtx, n int) *lin.Mat {
	m := lin.NewMat(n, n)
	v := pc.floats("lin.mat", n*n)
	for i := 0; i < n; i++ {
		copy(m.Row(i), v[i*n:(i+1)*n])
	}
	return m
}

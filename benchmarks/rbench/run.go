package rbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	rtm "runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	_ "renaissance/internal/bench/renaissance" // registers the 21 benchmarks
	"renaissance/internal/core"
	"renaissance/internal/metrics"
	"renaissance/internal/stats"
)

// Options selects one run. Scale and Rounds exist for the smoke tests:
// a run with Scale != 1 or Rounds != 0 still validates every op but its
// numbers compare with nothing.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int     // measured rounds = the table's Rounds x Seconds / DefaultSeconds
	Trace    bool    // record spans, tour the other workloads' ops, run the layer probes
	Scale    float64 // multiplies every amount of work: sizes, reps, pre-touch, canary, probes
	Rounds   int     // overrides the measured round count when > 0
}

// A Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A sample is one
// timed batch of RunIteration calls, a Setup or a Validate; any error or
// panic in one makes it a failed sample.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Detail is printed on the line before the Result: where the numbers were
// taken, and the metrics of the other kind that the run got for free (the
// run-level layer metrics of an untraced run, the end-to-end metrics as
// they read under tracing for a traced one).
type Detail struct {
	Env      Env               `json:"env"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Rounds   int               `json:"rounds"`
	Scale    float64           `json:"scale"`
	WallS    float64           `json:"wall_s"`
	Extra    map[string]Metric `json:"extra"`
	// SamplesMS holds every measured sample, per op in round order, and
	// the canary's time per round under "host.spin": the in-process
	// series from which steadiness can be judged after the fact.
	SamplesMS map[string][]float64 `json:"samples_ms"`
	Errors    []string             `json:"errors,omitempty"`
}

type instance struct {
	op Op
	w  core.Workload
}

type runner struct {
	o         Options
	wl        *Workload
	tr        *tracer
	attempted int
	failed    int
	errs      []string
	samples   map[string][]float64
}

// Run executes one workload in this process: a closed loop on the calling
// goroutine, with whatever workers the substrates start themselves.
func Run(o Options) (*Detail, *Result, []Span, error) {
	wl, ok := Lookup(o.Workload)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Scale <= 0 || o.Seconds <= 0 {
		return nil, nil, nil, fmt.Errorf("scale and seconds must be positive")
	}
	r := &runner{o: o, wl: wl}
	if o.Trace {
		r.tr = newTracer(fmt.Sprintf("%s/%d", wl.Name, o.Seed))
	}
	start := time.Now()
	runSpan := r.tr.begin("run")
	m, extra := r.run()
	r.tr.end(runSpan)

	res := &Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
	det := &Detail{
		Env: Fingerprint(o.Seed), Workload: wl.Name, Trace: o.Trace, Rounds: r.rounds(), Scale: o.Scale,
		WallS: time.Since(start).Seconds(), Extra: extra, SamplesMS: r.samples, Errors: r.errs,
	}
	var spans []Span
	if r.tr != nil {
		spans = r.tr.spans
	}
	return det, res, spans, nil
}

func (r *runner) rounds() int {
	if r.o.Rounds > 0 {
		return r.o.Rounds
	}
	return max(1, r.wl.Rounds*r.o.Seconds/DefaultSeconds)
}

// scaleWork multiplies an amount of work by Options.Scale, keeping at
// least one unit of it.
func scaleWork(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func (r *runner) scaled(n int) int { return scaleWork(n, r.o.Scale) }

// try runs one sample's worth of work, counting it and turning a panic
// on this goroutine into a failure.
func (r *runner) try(what string, fn func() error) {
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("%s: panic: %v\n%s", what, p, debug.Stack()))
		}
	}()
	if err := fn(); err != nil {
		r.fail(fmt.Errorf("%s: %w", what, err))
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// preTouch is Go's stand-in for -XX:+AlwaysPreTouch: on this VM the first
// touch of fresh pages made the ML set-ups take 1.6-2.6 s from process to
// process; with the pages already faulted in they take 1.2-1.3 s.
//
// It also parks PreSpawn goroutines at once and lets them exit. The runtime
// allocates a goroutine's descriptor (448 B) on the heap and never frees
// it, only reuses it, so a process keeps as many as it ever had goroutines
// alive at one time: 44 to 76 from run to run on transactional, which
// alone moved its 0.24 MB live_heap_mb by 6 %. With more descriptors on
// the free list than any workload needs the count is the same every run.
func (r *runner) preTouch() {
	id := r.tr.begin("pretouch")
	var parked, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < PreSpawn; i++ {
		parked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()

	b := make([]byte, r.scaled(1<<30))
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	b = nil
	runtime.GC()
	r.tr.end(id)
}

// setupAll calls Setup for every op, in table order, and returns the
// instances with the time the Setup calls alone took.
func (r *runner) setupAll(ops []Op) ([]instance, time.Duration) {
	var insts []instance
	var spent time.Duration
	for _, op := range ops {
		cfg := core.Config{SizeFactor: op.Size * r.o.Scale, Seed: r.o.Seed}
		t := time.Now()
		r.try("setup "+op.Bench, func() error {
			spec, ok := core.Global.Lookup(core.SuiteRenaissance, op.Bench)
			if !ok {
				return fmt.Errorf("not a registered benchmark")
			}
			w, err := spec.Setup(cfg)
			if err == nil {
				insts = append(insts, instance{op, w})
			}
			return err
		})
		spent += time.Since(t)
	}
	return insts, spent
}

func (r *runner) validateAll(insts []instance) {
	for _, in := range insts {
		if v, ok := in.w.(core.Validator); ok {
			r.try("validate "+in.op.Bench, v.Validate)
		}
	}
}

func closeAll(insts []instance) {
	for _, in := range insts {
		if c, ok := in.w.(core.Closer); ok {
			_ = c.Close() // teardown after the numbers are taken; nothing to report it against
		}
	}
}

// A sample is Reps back-to-back iterations of one op.
type sample struct {
	wall, cpu time.Duration
}

func (r *runner) sample(in instance, tr *tracer) sample {
	var before metrics.Snapshot
	if tr != nil {
		before = metrics.Default.Snapshot()
	}
	reps := in.op.Reps
	if reps > 1 {
		reps = r.scaled(reps)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	r.try("run "+in.op.Bench, func() error {
		for i := 0; i < reps; i++ {
			if err := in.w.RunIteration(); err != nil {
				return err
			}
		}
		return nil
	})
	t1 := time.Now()
	cpu := cpuTime() - cpu0
	if tr != nil {
		delta := metrics.Default.Snapshot().Delta(before)
		counts := make(map[string]int64, len(profCounters))
		for _, m := range metrics.AllMetrics() {
			if v := delta.Get(m); v != 0 && m.Counted() {
				counts[m.String()] = v
			}
		}
		tr.add("op."+in.op.Bench, t0, t1, counts)
	}
	return sample{t1.Sub(t0), cpu}
}

// canary spins a fixed amount of integer work on every processor. Its
// time says whether the host, not the program, was slow during a round;
// it is reported and never used to filter or normalise.
func (r *runner) canary() time.Duration {
	steps := r.scaled(20_000_000)
	t := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			canarySink.Store(x)
		}(uint64(g) + 0x9E3779B97F4A7C15)
	}
	wg.Wait()
	return time.Since(t)
}

var canarySink atomic.Uint64

// round runs the canary, forces a collection so that every round starts
// from the same heap state, then samples every op once in table order.
// (Collecting before every sample instead costs 83 ms a time on
// dataparallel's 557 MB of live data, +12 s a run, and made round_ms no
// steadier: README.md, noise study.)
func (r *runner) round(insts []instance, tr *tracer) (spin time.Duration, samples []sample) {
	id := tr.begin("round")
	spin = r.canary()
	runtime.GC()
	samples = make([]sample, len(insts))
	for i, in := range insts {
		samples[i] = r.sample(in, tr)
	}
	tr.end(id)
	return spin, samples
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *runner) run() (result, extra map[string]Metric) {
	r.preTouch()

	// Set-up, SetupEpisodes times from scratch. An episode is every
	// op's Setup plus one full round, so it ends when the workload has
	// produced its first results: work moved into Setup, lazily built
	// state and rvm tier-up all land in it.
	id := r.tr.begin("setup")
	var insts []instance
	var episodes, setupCalls []float64
	for e := 0; e < SetupEpisodes; e++ {
		closeAll(insts)
		insts = nil
		runtime.GC()
		t := time.Now()
		var spent time.Duration
		insts, spent = r.setupAll(r.wl.Ops)
		for _, in := range insts {
			r.sample(in, nil)
		}
		episodes = append(episodes, time.Since(t).Seconds())
		setupCalls = append(setupCalls, spent.Seconds())
	}
	r.tr.end(id)
	if len(insts) != len(r.wl.Ops) {
		// A Setup failed and was counted; there is nothing to measure.
		return r.report(nil), nil
	}

	id = r.tr.begin("warmup")
	for i := 1; i < WarmupRounds; i++ {
		r.round(insts, nil)
	}
	r.tr.end(id)

	// Measured rounds. In a traced run the odd rounds record spans and
	// counter deltas and the even ones do not, so the same run yields
	// the tracing overhead with host drift cancelled.
	id = r.tr.begin("measure")
	n := r.rounds()
	ph := phase{perOp: make([][]float64, len(insts))}
	rt0, prof, wall0 := readRuntime(), metrics.StartProfile(core.SuiteRenaissance, r.wl.Name), time.Now()
	for i := 0; i < n; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = r.tr
		}
		spin, samples := r.round(insts, tr)
		ph.add(spin, samples, tr != nil)
	}
	ph.wall, ph.prof, ph.rt = time.Since(wall0), prof.Stop(), readRuntime().since(rt0)
	r.tr.end(id)

	id = r.tr.begin("validate")
	r.validateAll(insts)
	// Two collections: the first empties sync.Pools into their victim
	// caches, the second drops those, so pooled scratch is not counted.
	runtime.GC()
	runtime.GC()
	ph.liveHeap = readRuntime().heapObjects
	closeAll(insts)
	r.tr.end(id)

	e2e := map[string]Metric{
		"setup_s":            {stats.Median(episodes), "s"},
		"round_ms":           {ph.roundMS(allRounds), "ms"},
		"alloc_mb_per_round": {float64(ph.rt.allocBytes) / (1 << 20) / float64(n), "MB"},
		"live_heap_mb":       {float64(ph.liveHeap) / (1 << 20), "MB"},
	}
	layers := ph.layerMetrics(r.wl)
	r.samples = map[string][]float64{"host.spin": ph.spin}
	for i, op := range r.wl.Ops {
		r.samples[op.Bench] = ph.perOp[i]
	}
	layers["core.setup_call_s"] = Metric{stats.Median(setupCalls), "s"}
	if !r.o.Trace {
		return r.report(e2e), layers
	}

	layers["trace.overhead_pct"] = Metric{100 * (ph.roundMS(tracedRounds)/ph.roundMS(untracedRounds) - 1), "%"}
	e2e["round_ms_traced"] = Metric{ph.roundMS(tracedRounds), "ms"} // what `rbench explain` recomputes from the spans
	r.tour(layers)
	r.runProbes(layers)
	return r.report(layers), e2e
}

// report keeps exactly the metrics this run's Result must carry; one that
// could not be taken counts as a failed sample, never as a silent gap.
func (r *runner) report(have map[string]Metric) map[string]Metric {
	defs := EndToEnd
	if r.o.Trace {
		defs = PerLayer()
	}
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := have[d.Name]
		if !ok {
			r.attempted++
			r.fail(fmt.Errorf("metric %s was not measured", d.Name))
			m = Metric{0, d.Unit}
		}
		out[d.Name] = m
	}
	return out
}

// tour takes op.<bench>.ms for the ops of the other workloads, so that a
// traced run names all 21: one warm-up sample and two measured ones per
// op, each op set up, validated and closed on its own. An op's number is
// comparable only with the same op in a traced run of the same workload.
func (r *runner) tour(layers map[string]Metric) {
	id := r.tr.begin("tour")
	defer r.tr.end(id)
	for i := range Workloads {
		if &Workloads[i] == r.wl {
			continue
		}
		for _, op := range Workloads[i].Ops {
			insts, _ := r.setupAll([]Op{op})
			if len(insts) == 0 {
				continue
			}
			var xs []float64
			for k := 0; k < 3; k++ {
				runtime.GC()
				s := r.sample(insts[0], r.tr)
				if k > 0 {
					xs = append(xs, ms(s.wall))
				}
			}
			layers["op."+op.Bench+".ms"] = Metric{stats.Median(xs), "ms"}
			r.validateAll(insts)
			closeAll(insts)
		}
	}
}

// phase accumulates the measured rounds.
type phase struct {
	perOp    [][]float64 // [op][round] sample wall ms
	traced   []bool      // [round]
	roundSum []float64   // [round] sum of the round's samples, ms
	spin     []float64   // [round] canary ms
	cpu      time.Duration
	busy     time.Duration // sum of sample wall times
	wall     time.Duration
	prof     *metrics.Profile
	rt       runtimeStats
	liveHeap uint64
}

func (p *phase) add(spin time.Duration, samples []sample, traced bool) {
	sum := 0.0
	for i, s := range samples {
		p.perOp[i] = append(p.perOp[i], ms(s.wall))
		sum += ms(s.wall)
		p.cpu += s.cpu
		p.busy += s.wall
	}
	p.roundSum = append(p.roundSum, sum)
	p.spin = append(p.spin, ms(spin))
	p.traced = append(p.traced, traced)
}

// Which measured rounds a statistic is taken over.
type roundSet int

const (
	allRounds roundSet = iota
	tracedRounds
	untracedRounds
)

// opMedian is the median sample of op i over the given rounds (over all
// of them when the set is empty, as in a one-round smoke run).
func (p *phase) opMedian(i int, set roundSet) float64 {
	var xs []float64
	for k, v := range p.perOp[i] {
		if set != allRounds && p.traced[k] == (set == tracedRounds) {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		xs = p.perOp[i]
	}
	return stats.Median(xs)
}

// roundMS is the sum over the ops of the median sample: the time of a
// typical round with the waits between samples left out.
func (p *phase) roundMS(set roundSet) float64 {
	sum := 0.0
	for i := range p.perOp {
		sum += p.opMedian(i, set)
	}
	return sum
}

func (p *phase) layerMetrics(wl *Workload) map[string]Metric {
	n := float64(len(p.roundSum))
	q1, med, q3 := quartiles(p.roundSum)
	out := map[string]Metric{
		"round_p75_ms":               {stats.Percentile(p.roundSum, 0.75), "ms"},
		"round_iqr_pct":              {100 * (q3 - q1) / med, "%"},
		"proc.cpu_ms_per_round":      {ms(p.cpu) / n, "ms"},
		"proc.parallelism":           {float64(p.cpu) / float64(p.busy), "ratio"},
		"rt.gc_cycles_per_round":     {float64(p.rt.gcCycles) / n, "count"},
		"rt.gc_cpu_pct":              {100 * p.rt.gcCPU / p.rt.totalCPU, "%"},
		"rt.gc_pause_max_us":         {p.rt.pauseMax * 1e6, "us"},
		"rt.sched_lat_p99_us":        {p.rt.schedP99 * 1e6, "us"},
		"rt.mutex_wait_ms_per_round": {p.rt.mutexWait * 1e3 / n, "ms"},
		"rt.mallocs_k_per_round":     {float64(p.rt.allocObjects) / 1e3 / n, "count"},
		"host.spin_ms":               {stats.Median(p.spin), "ms"},
		"host.spin_max_ms":           {stats.Max(p.spin), "ms"},
	}
	for i, op := range wl.Ops {
		out["op."+op.Bench+".ms"] = Metric{p.opMedian(i, allRounds), "ms"}
	}
	for _, m := range metrics.AllMetrics() {
		if slices.Contains(profCounters, m.String()) {
			out["prof."+m.String()] = Metric{float64(p.prof.Counts.Get(m)) / n, "count"}
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats are the runtime/metrics values the benchmark reports:
// cumulative ones as read, or their difference after since.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles, heapObjects uint64
	gcCPU, totalCPU, mutexWait                      float64
	pauses, schedLat                                *rtm.Float64Histogram
	pauseMax, schedP99                              float64 // seconds; set by since
}

func readRuntime() runtimeStats {
	s := []rtm.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/sched/pauses/total/gc:seconds"}, {Name: "/sched/latencies:seconds"},
	}
	rtm.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		heapObjects: s[3].Value.Uint64(),
		gcCPU:       s[4].Value.Float64(), totalCPU: s[5].Value.Float64(), mutexWait: s[6].Value.Float64(),
		pauses: s[7].Value.Float64Histogram(), schedLat: s[8].Value.Float64Histogram(),
	}
}

func (a runtimeStats) since(b runtimeStats) runtimeStats {
	pauses, lat := histDelta(a.pauses, b.pauses), histDelta(a.schedLat, b.schedLat)
	return runtimeStats{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, heapObjects: a.heapObjects,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, mutexWait: a.mutexWait - b.mutexWait,
		pauseMax: histQuantile(a.pauses.Buckets, pauses, 1), schedP99: histQuantile(a.schedLat.Buckets, lat, 0.99),
	}
}

func histDelta(a, b *rtm.Float64Histogram) []uint64 {
	d := make([]uint64, len(a.Counts))
	for i := range d {
		d[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// histQuantile returns the upper edge of the bucket holding quantile q
// (the lower edge where the upper one is infinite), 0 for no samples.
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want, seen := uint64(float64(total)*q+0.5), uint64(0)
	for i, c := range counts {
		seen += c
		if c > 0 && seen >= want {
			if hi := buckets[i+1]; hi <= 1e300 {
				return hi
			}
			return buckets[i]
		}
	}
	return 0
}

// Package loadgen is the coordinated-omission-safe serving tier's load
// generator (DESIGN.md §11). It drives a Target open-loop: request arrival
// times come from a seeded Poisson process fixed *before* the run, and
// each response's latency is recorded against the request's intended
// arrival time, not the moment the generator actually managed to send it.
//
// The distinction is the whole point. A closed-loop driver (each client
// waits for its previous response) lets a stalled server silently pause
// the offered load: during an N-millisecond stall a closed loop records
// one N-millisecond sample per client and simply issues fewer requests,
// so the stall nearly vanishes from the percentiles — Gil Tene's
// "coordinated omission". The open-loop generator keeps offering load on
// the intended schedule; every request that should have been sent during
// the stall measures the stall, and the recorded distribution is the one
// a production user population (which does not politely stop clicking)
// would experience. The steady-state EMSE work in PAPERS.md
// (arXiv:2209.15369) makes the companion argument: latency
// *distributions*, not means, are the production-relevant signal.
//
// Latencies land in an hdr.Histogram, so per-generator histograms merge
// losslessly and p50/p99/p99.9 survive millions of requests. Targets
// register by benchmark name (the finagle workloads register theirs), and
// Sweep walks offered load upward to find the saturation knee.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"renaissance/internal/core"
	"renaissance/internal/hdr"
	"renaissance/internal/netstack"
)

// A Target is one service under load: Send issues request seq and blocks
// until its response. Implementations must be safe for concurrent Sends —
// an open-loop generator overlaps requests whenever the service is slower
// than the arrival process.
type Target interface {
	Send(seq uint64) error
	Close() error
}

// TargetFactory builds a fresh target (service plus client) for one
// measurement; sweeps call it once per offered rate so points do not
// contaminate each other.
type TargetFactory func(cfg core.Config) (Target, error)

var targets sync.Map // string -> TargetFactory

// RegisterTarget registers a target factory under a benchmark name.
// Duplicate registration panics, matching the benchmark registry.
func RegisterTarget(name string, f TargetFactory) {
	if _, dup := targets.LoadOrStore(name, f); dup {
		panic(fmt.Sprintf("loadgen: duplicate target %s", name))
	}
}

// NewTarget builds the named target.
func NewTarget(name string, cfg core.Config) (Target, error) {
	v, ok := targets.Load(name)
	if !ok {
		return nil, fmt.Errorf("loadgen: no open-loop target registered for %q", name)
	}
	return v.(TargetFactory)(cfg)
}

// HasTarget reports whether a target is registered under name.
func HasTarget(name string) bool {
	_, ok := targets.Load(name)
	return ok
}

// TargetNames returns the registered target names, sorted.
func TargetNames() []string {
	var out []string
	targets.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// DefaultMaxOutstanding caps concurrently in-flight requests when
// Options.MaxOutstanding is unset — a generator-side safety valve far
// above any sane operating point, so a wedged target cannot spawn
// unbounded goroutines. Arrivals refused by the cap are counted in
// Result.Dropped, never silently discarded from the accounting.
const DefaultMaxOutstanding = 1 << 16

// Options configures one open-loop measurement.
type Options struct {
	// Rate is the offered load in requests per second; must be > 0.
	Rate float64
	// Duration is how long load is offered (1s when 0). The run then
	// drains in-flight requests before returning.
	Duration time.Duration
	// Seed fixes the Poisson arrival schedule (the `-chaos.seed`
	// determinism convention: same seed, same intended send times).
	Seed int64
	// MaxOutstanding caps in-flight requests (DefaultMaxOutstanding
	// when 0).
	MaxOutstanding int
}

// Result is the outcome of one measurement at one offered rate.
type Result struct {
	// Offered counts scheduled arrivals; Completed successful responses.
	Offered   int64
	Completed int64
	// Rejected counts overload turn-aways (netstack.ErrRejected); Errors
	// everything else.
	Rejected int64
	Errors   int64
	// Dropped counts arrivals refused by the MaxOutstanding safety valve.
	Dropped int64
	// Elapsed spans first arrival to last drained response.
	Elapsed time.Duration
	// Hist holds the latency distribution of completed requests —
	// measured from *intended* send time for open-loop runs, from actual
	// send time for closed-loop runs.
	Hist *hdr.Histogram
}

// Throughput returns completed requests per second over the run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// PercentileMillis returns the q-th latency quantile in milliseconds.
func (r *Result) PercentileMillis(q float64) float64 {
	return float64(r.Hist.Quantile(q)) / float64(time.Millisecond)
}

// arrivalOffsets fixes the Poisson arrival schedule before the run: the
// deterministic (per seed) offsets from the run's start at which requests
// are *intended* to be sent, with exponential inter-arrival gaps of mean
// 1/rate. Pinning the schedule up front is what makes the measurement
// coordinated-omission-safe — a stall in the target cannot retroactively
// thin the schedule.
func arrivalOffsets(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	offset := time.Duration(0)
	for {
		offset += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if offset >= d {
			return out
		}
		out = append(out, offset)
	}
}

// Run drives the target open-loop per the options and returns the
// latency distribution measured against intended send times.
func Run(t Target, opt Options) (*Result, error) {
	if opt.Rate <= 0 {
		return nil, errors.New("loadgen: Rate must be > 0")
	}
	if opt.Duration <= 0 {
		opt.Duration = time.Second
	}
	maxOut := opt.MaxOutstanding
	if maxOut <= 0 {
		maxOut = DefaultMaxOutstanding
	}
	schedule := arrivalOffsets(opt.Seed, opt.Rate, opt.Duration)

	res := &Result{Hist: hdr.New()}
	var completed, rejected, errs atomic.Int64
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	start := time.Now()
	for seq, offset := range schedule {
		intended := start.Add(offset)
		// Sleep until the intended send time; when the generator is
		// behind (send-time slip), fire immediately — the latency is
		// measured from `intended` either way, so slip shows up as
		// latency instead of disappearing from the schedule.
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		res.Offered++
		select {
		case sem <- struct{}{}:
		default:
			res.Dropped++ // safety valve, reported, never silent
			continue
		}
		wg.Add(1)
		go func(seq uint64, intended time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := t.Send(seq)
			lat := time.Since(intended)
			switch {
			case err == nil:
				res.Hist.RecordDuration(lat)
				completed.Add(1)
			case errors.Is(err, netstack.ErrRejected):
				rejected.Add(1)
			default:
				errs.Add(1)
			}
		}(uint64(seq), intended)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Completed = completed.Load()
	res.Rejected = rejected.Load()
	res.Errors = errs.Load()
	return res, nil
}

// RunClosed drives the target closed-loop — `clients` workers, each
// issuing `perClient` requests back-to-back, latency measured from the
// *actual* send time — the measurement style the finagle workloads used
// before this tier existed. It exists for A/B comparison: under a server
// stall it under-reports tail latency (each worker contributes one
// stalled sample and stops offering load), which is exactly the
// coordinated omission the open-loop Run avoids. See
// TestOpenLoopSeesStallClosedLoopHides.
func RunClosed(t Target, clients, perClient int) (*Result, error) {
	if clients <= 0 || perClient <= 0 {
		return nil, errors.New("loadgen: clients and perClient must be > 0")
	}
	res := &Result{Hist: hdr.New()}
	var completed, rejected, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seq := uint64(c*perClient + i)
				sent := time.Now()
				err := t.Send(seq)
				switch {
				case err == nil:
					res.Hist.RecordDuration(time.Since(sent))
					completed.Add(1)
				case errors.Is(err, netstack.ErrRejected):
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Offered = int64(clients * perClient)
	res.Completed = completed.Load()
	res.Rejected = rejected.Load()
	res.Errors = errs.Load()
	return res, nil
}

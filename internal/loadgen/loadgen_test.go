package loadgen

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/core"
	"renaissance/internal/futures"
	"renaissance/internal/hdr"
	"renaissance/internal/netstack"
)

// The arrival schedule is fixed before the run, deterministic per seed,
// and Poisson: exponential inter-arrival gaps with mean 1/rate.
func TestArrivalScheduleDeterministicPoisson(t *testing.T) {
	const rate = 5000.0
	d := 2 * time.Second
	a := arrivalOffsets(7, rate, d)
	b := arrivalOffsets(7, rate, d)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := arrivalOffsets(8, rate, d)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
	// Mean arrivals ≈ rate·duration within a loose Poisson tolerance.
	want := rate * d.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("arrivals = %g, want ≈ %g", got, want)
	}
	// Offsets are increasing and within the duration.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrival offsets not monotone")
		}
	}
	if a[len(a)-1] >= d {
		t.Error("arrival past the run duration")
	}
}

// stallTarget serves in serviceTime, except that the stallAfter-th request
// triggers a single stall of stallFor during which every request blocks —
// the "server pause" of the coordinated-omission literature (GC pause,
// page fault, packet loss recovery).
type stallTarget struct {
	serviceTime time.Duration
	stallAfter  int64
	stallFor    time.Duration
	sends       atomic.Int64
	stalled     atomic.Bool
	mu          sync.RWMutex
}

func (s *stallTarget) Send(uint64) error {
	if s.sends.Add(1) == s.stallAfter && s.stalled.CompareAndSwap(false, true) {
		go func() {
			s.mu.Lock()
			time.Sleep(s.stallFor)
			s.mu.Unlock()
		}()
		// Let the writer take the lock so the stall window opens now.
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.RLock()
	//lint:ignore SA2001 the critical section is the stall barrier itself
	s.mu.RUnlock()
	time.Sleep(s.serviceTime)
	return nil
}

func (s *stallTarget) Close() error { return nil }

// The acceptance-criteria demonstration: the same server stall is nearly
// invisible to the closed-loop measurement (each worker contributes one
// stalled sample, then the loop stops offering load) but dominates the
// open-loop p99, because every request the schedule intended to send
// during the stall measures it.
func TestOpenLoopSeesStallClosedLoopHides(t *testing.T) {
	const (
		service    = 100 * time.Microsecond
		stallAfter = 500
		stall      = 300 * time.Millisecond
	)
	closedTarget := &stallTarget{serviceTime: service, stallAfter: stallAfter, stallFor: stall}
	closed, err := RunClosed(closedTarget, 4, 1000) // 4000 requests, 4 see the stall
	if err != nil {
		t.Fatal(err)
	}

	openTarget := &stallTarget{serviceTime: service, stallAfter: stallAfter, stallFor: stall}
	open, err := Run(openTarget, Options{Rate: 2000, Duration: 1500 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if closed.Completed == 0 || open.Completed == 0 {
		t.Fatalf("no completions: closed=%d open=%d", closed.Completed, open.Completed)
	}
	closedP99 := closed.PercentileMillis(0.99)
	openP99 := open.PercentileMillis(0.99)
	stallMs := float64(stall) / float64(time.Millisecond)

	// Closed loop: at most one stalled sample per worker out of 1000, so
	// the stall cannot reach p99.
	if closedP99 >= stallMs/2 {
		t.Errorf("closed-loop p99 = %.1fms; expected the stall (%.0fms) to be hidden below %.0fms",
			closedP99, stallMs, stallMs/2)
	}
	// Open loop: ~600 of ~3000 intended arrivals land in the stall window
	// and measure it against their intended send time.
	if openP99 <= closedP99 {
		t.Errorf("open-loop p99 = %.2fms not strictly above closed-loop p99 = %.2fms", openP99, closedP99)
	}
	if openP99 < 2*closedP99 {
		t.Errorf("open-loop p99 = %.2fms, want ≥ 2× closed-loop %.2fms under a %.0fms stall",
			openP99, closedP99, stallMs)
	}
	if openP99 < stallMs/4 {
		t.Errorf("open-loop p99 = %.2fms does not reflect the %.0fms stall", openP99, stallMs)
	}
}

// queueTarget models a service with fixed concurrency and service time —
// capacity = concurrency/serviceTime requests per second — so a sweep has
// a real knee to find.
type queueTarget struct {
	sem     chan struct{}
	service time.Duration
}

func newQueueTarget(concurrency int, service time.Duration) *queueTarget {
	return &queueTarget{sem: make(chan struct{}, concurrency), service: service}
}

func (q *queueTarget) Send(uint64) error {
	q.sem <- struct{}{}
	time.Sleep(q.service)
	<-q.sem
	return nil
}

func (q *queueTarget) Close() error { return nil }

func TestSweepFindsSaturationKnee(t *testing.T) {
	// Capacity 4/1ms = 4000 req/s; the sweep crosses it.
	factory := func() (Target, error) { return newQueueTarget(4, time.Millisecond), nil }
	rates := []float64{250, 1000, 12000}
	points, err := Sweep(factory, rates, Options{Duration: 400 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rates) {
		t.Fatalf("sweep returned %d points, want %d", len(points), len(rates))
	}
	for _, pt := range points {
		if pt.Result.Completed == 0 {
			t.Fatalf("rate %g completed nothing", pt.Rate)
		}
		if pt.Result.Hist.Count() == 0 {
			t.Fatalf("rate %g produced an empty histogram", pt.Rate)
		}
	}
	knee := Knee(points, 0)
	if knee < 1 {
		t.Fatalf("Knee = %d; the 12000 req/s point (3× capacity) must be past the knee", knee)
	}
	// Past the knee the tail is queueing: p99 far above the lowest rate's.
	below, above := points[0].Result, points[knee].Result
	if above.PercentileMillis(0.99) <= below.PercentileMillis(0.99) {
		t.Errorf("p99 at knee (%.2fms) not above baseline p99 (%.2fms)",
			above.PercentileMillis(0.99), below.PercentileMillis(0.99))
	}
}

func TestKneeEdgeCases(t *testing.T) {
	mk := func(p50, p99 time.Duration, completed int64) *Result {
		r := &Result{Hist: newHistFrom(p50, p99), Completed: completed}
		return r
	}
	// Flat sweep: no knee.
	flat := []SweepPoint{
		{Rate: 100, Result: mk(time.Millisecond, 2*time.Millisecond, 10)},
		{Rate: 200, Result: mk(time.Millisecond, 2*time.Millisecond, 10)},
	}
	if got := Knee(flat, 8); got != -1 {
		t.Errorf("Knee(flat) = %d, want -1", got)
	}
	// Divergent second point.
	div := []SweepPoint{
		{Rate: 100, Result: mk(time.Millisecond, 2*time.Millisecond, 10)},
		{Rate: 200, Result: mk(time.Millisecond, 50*time.Millisecond, 10)},
	}
	if got := Knee(div, 8); got != 1 {
		t.Errorf("Knee(divergent) = %d, want 1", got)
	}
	// Zero-completion points are skipped, not treated as saturated.
	gap := []SweepPoint{
		{Rate: 100, Result: mk(time.Millisecond, 2*time.Millisecond, 10)},
		{Rate: 200, Result: &Result{Hist: hdr.New()}},
		{Rate: 400, Result: mk(time.Millisecond, 2*time.Millisecond, 10)},
	}
	if got := Knee(gap, 8); got != -1 {
		t.Errorf("Knee(gap) = %d, want -1", got)
	}
}

// newHistFrom builds a histogram whose p50/p99 approximate the given
// values: 98 samples at p50, 2 at p99 (the nearest-rank p99 of 100
// samples is the 99th smallest).
func newHistFrom(p50, p99 time.Duration) *hdr.Histogram {
	h := hdr.New()
	for i := 0; i < 98; i++ {
		h.RecordDuration(p50)
	}
	h.RecordDuration(p99)
	h.RecordDuration(p99)
	return h
}

// errorTarget classifies failures for accounting tests.
type errorTarget struct{ err error }

func (e *errorTarget) Send(uint64) error { return e.err }
func (e *errorTarget) Close() error      { return nil }

func TestErrorClassification(t *testing.T) {
	for _, tc := range []struct {
		err   error
		check func(r *Result) int64
		name  string
	}{
		{errors.New("boom"), func(r *Result) int64 { return r.Errors }, "error"},
		{netstack.ErrRejected, func(r *Result) int64 { return r.Rejected }, "rejected"},
	} {
		res, err := Run(&errorTarget{err: tc.err}, Options{Rate: 1000, Duration: 100 * time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 0 {
			t.Errorf("%s: Completed = %d, want 0", tc.name, res.Completed)
		}
		if got := tc.check(res); got != res.Offered-res.Dropped {
			t.Errorf("%s: counter = %d, want %d", tc.name, got, res.Offered-res.Dropped)
		}
		if res.Hist.Count() != 0 {
			t.Errorf("%s: failed requests must not pollute the latency histogram", tc.name)
		}
	}
}

// netTarget drives a real netstack client, the shape the finagle targets
// register.
type netTarget struct{ cli *netstack.Client }

func (n netTarget) Send(uint64) error {
	_, err := n.cli.CallSync([]byte("x"))
	return err
}
func (n netTarget) Close() error { return n.cli.Close() }

// A server with MaxPending but no MaxQueue has a zero-length admission
// queue: overload is turned away with the one typed rejection, which the
// generator counts under Rejected, not Errors.
func TestZeroLengthQueueLandsInRejected(t *testing.T) {
	srv, err := netstack.Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.Async(func() ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			return req, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxPending = 1
	defer srv.Close()
	cli, err := netstack.Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tgt := netTarget{cli}
	defer tgt.Close()

	res, err := Run(tgt, Options{Rate: 500, Duration: 200 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.Rejected != srv.Rejected.Load() {
		t.Errorf("Result.Rejected = %d, Server.Rejected = %d, want equal and > 0", res.Rejected, srv.Rejected.Load())
	}
	if res.Errors != 0 || res.Completed+res.Rejected != res.Offered-res.Dropped {
		t.Errorf("accounting: %d completed + %d rejected + %d errors of %d offered, %d dropped",
			res.Completed, res.Rejected, res.Errors, res.Offered, res.Dropped)
	}
}

func TestTargetRegistry(t *testing.T) {
	// The registry is process-global and duplicate registration panics,
	// so stay idempotent under -count>1 reruns.
	if !HasTarget("loadgen-test-target") {
		RegisterTarget("loadgen-test-target", func(cfg core.Config) (Target, error) {
			return newQueueTarget(1, time.Microsecond), nil
		})
	}
	if !HasTarget("loadgen-test-target") {
		t.Fatal("registered target not found")
	}
	tgt, err := NewTarget("loadgen-test-target", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if err := tgt.Send(0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTarget("no-such-target", core.DefaultConfig()); err == nil {
		t.Fatal("unknown target did not error")
	}
	found := false
	for _, n := range TargetNames() {
		if n == "loadgen-test-target" {
			found = true
		}
	}
	if !found {
		t.Error("TargetNames missing registered target")
	}
}

func TestMaxOutstandingDropsAreCounted(t *testing.T) {
	// A target that completes nothing during the offered window forces
	// the safety valve: arrivals beyond MaxOutstanding are dropped and
	// counted. The release fires after the window so Run's drain phase
	// can finish.
	block := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(block)
	}()
	tgt := &blockingTarget{block: block}
	res, err := Run(tgt, Options{Rate: 2000, Duration: 100 * time.Millisecond, Seed: 1, MaxOutstanding: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("expected dropped arrivals with MaxOutstanding=4 and a wedged target")
	}
	if res.Dropped+4 != res.Offered {
		t.Errorf("Offered=%d Dropped=%d: accounting must cover every arrival", res.Offered, res.Dropped)
	}
}

type blockingTarget struct{ block chan struct{} }

func (b *blockingTarget) Send(uint64) error { <-b.block; return nil }
func (b *blockingTarget) Close() error      { return nil }

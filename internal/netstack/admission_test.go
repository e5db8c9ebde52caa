package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/futures"
	"renaissance/internal/metrics"
)

// gate is a service that parks requests until released, so tests can pin
// the server's in-flight count at will.
type gate struct {
	mu      sync.Mutex
	pending []*futures.Promise[[]byte]
}

func (g *gate) service(req []byte) *futures.Future[[]byte] {
	p := futures.NewPromise[[]byte]()
	g.mu.Lock()
	g.pending = append(g.pending, p)
	g.mu.Unlock()
	return p.Future()
}

func (g *gate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.pending {
		_ = p.Success([]byte("done"))
	}
	g.pending = nil
}

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// Admission control: with MaxQueue configured, a request arriving while
// MaxPending are in flight waits in the bounded accept queue instead of
// being rejected, and completes once a permit frees up.
func TestAdmissionQueueAdmitsBeyondMaxPending(t *testing.T) {
	g := &gate{}
	srv, err := Serve("127.0.0.1:0", g.service)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxPending = 1
	srv.MaxQueue = 4
	srv.DrainTimeout = 100 * time.Millisecond
	defer srv.Close()

	cli, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	hog := cli.Call([]byte("hog"))
	deadline := time.Now().Add(5 * time.Second)
	for g.count() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never parked the hog request")
		}
		time.Sleep(time.Millisecond)
	}

	// The second request saturates MaxPending and must queue, not be rejected.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := cli.CallSync([]byte("queued"))
		queuedDone <- err
	}()
	// Give the queued request time to park in the admission queue, then
	// release the hog: both must complete, nothing rejected.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-queuedDone:
		t.Fatalf("queued request finished while capacity was exhausted: %v", err)
	default:
	}
	g.releaseAll()
	// The hog's release frees the permit, admitting the queued request;
	// release rounds until it lands in the service.
	for i := 0; i < 100; i++ {
		g.releaseAll()
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	if _, err := hog.Await(); err != nil {
		t.Fatalf("hog request failed: %v", err)
	}
	if rej := srv.Rejected.Load(); rej != 0 {
		t.Errorf("Rejected = %d with admission queue room, want 0", rej)
	}
}

// A full admission queue turns requests away with ErrRejected and bumps
// the Rejected counters.
func TestAdmissionQueueRejectsWhenFull(t *testing.T) {
	g := &gate{}
	srv, err := Serve("127.0.0.1:0", g.service)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxPending = 1
	srv.MaxQueue = 1
	srv.DrainTimeout = 100 * time.Millisecond
	defer srv.Close()

	cli, err := Dial(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	hog := cli.Call([]byte("hog"))
	deadline := time.Now().Add(5 * time.Second)
	for g.count() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never parked the hog request")
		}
		time.Sleep(time.Millisecond)
	}
	queuedDone := make(chan error, 1)
	go func() {
		_, err := cli.CallSync([]byte("queued"))
		queuedDone <- err
	}()
	// Wait for the second request to occupy the queue slot.
	for srv.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Permit held, queue slot held: the third request must be rejected.
	_, err = cli.CallSync([]byte("overflow"))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("overflow call = %v, want ErrRejected", err)
	}
	if !Retryable(err) {
		t.Error("ErrRejected must be retryable")
	}
	if rej := srv.Rejected.Load(); rej == 0 {
		t.Error("Server.Rejected counter not bumped")
	}
	if cli.Rejected.Load() == 0 {
		t.Error("Client.Rejected counter not bumped")
	}

	for i := 0; i < 100; i++ {
		g.releaseAll()
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	if _, err := hog.Await(); err != nil {
		t.Fatalf("hog request failed: %v", err)
	}
}

// A zero-length admission queue (MaxPending without MaxQueue) turns request
// MaxPending+1 away with the one typed rejection: ErrRejected at the
// client, one Server.Rejected, one dead letter in the fault-path metrics.
func TestAdmissionZeroQueueRejectsBeyondMaxPending(t *testing.T) {
	g := &gate{}
	srv, err := Serve("127.0.0.1:0", g.service)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxPending = 2
	srv.DrainTimeout = 50 * time.Millisecond
	defer srv.Close()

	cli, err := Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Fill the pending window, waiting until the server holds both.
	f1 := cli.Call([]byte("a"))
	f2 := cli.Call([]byte("b"))
	deadline := time.Now().Add(5 * time.Second)
	for g.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("server never accepted the first two requests")
		}
		time.Sleep(time.Millisecond)
	}

	// The third request must be rejected, typed as ErrRejected, without
	// retries, and counted once everywhere.
	dead := metrics.Default.Get(metrics.DeadLetter)
	_, err = cli.CallSync([]byte("c"))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("overload call = %v, want ErrRejected", err)
	}
	if got := srv.Rejected.Load(); got != 1 {
		t.Errorf("Server.Rejected = %d, want 1", got)
	}
	if got := cli.Rejected.Load(); got != 1 {
		t.Errorf("Client.Rejected = %d, want 1", got)
	}
	if got := metrics.Default.Get(metrics.DeadLetter) - dead; got != 1 {
		t.Errorf("prof.deadletter bumped %d times, want 1", got)
	}
	if got := srv.Requests.Load(); got != 2 {
		t.Errorf("Server.Requests = %d, want 2: a rejected request never reaches the service", got)
	}

	// Releasing the window lets both parked calls and new traffic through:
	// the rejection never poisoned the pooled connections.
	g.releaseAll()
	for _, f := range []*futures.Future[[]byte]{f1, f2} {
		resp, err := f.Await()
		if err != nil || !bytes.Equal(resp, []byte("done")) {
			t.Errorf("parked call = (%q, %v), want (done, nil)", resp, err)
		}
	}
	stop := make(chan struct{})
	var releaser sync.WaitGroup
	releaser.Add(1)
	go func() {
		defer releaser.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				g.releaseAll()
			}
		}
	}()
	resp, err := cli.CallSync([]byte("after"))
	close(stop)
	releaser.Wait()
	if err != nil || !bytes.Equal(resp, []byte("done")) {
		t.Errorf("post-rejection call = (%q, %v), want (done, nil)", resp, err)
	}
}

func TestAdmissionRejectionIsRetried(t *testing.T) {
	// With a retry policy, a rejection backs off and retries; once the
	// window clears, the retry succeeds — admission control composes with
	// the retry loop instead of failing the call outright.
	g := &gate{}
	srv, err := Serve("127.0.0.1:0", g.service)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxPending = 1
	srv.DrainTimeout = 50 * time.Millisecond
	defer srv.Close()

	cli, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Retry = RetryPolicy{Max: 5, Backoff: 5 * time.Millisecond}

	blocker := cli.Call([]byte("hog"))
	deadline := time.Now().Add(5 * time.Second)
	for g.count() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never parked the hog request")
		}
		time.Sleep(time.Millisecond)
	}

	// Free the window shortly after the second call starts retrying.
	go func() {
		time.Sleep(15 * time.Millisecond)
		for i := 0; i < 100; i++ {
			g.releaseAll()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	resp, err := cli.CallSync([]byte("patient"))
	if err != nil || !bytes.Equal(resp, []byte("done")) {
		t.Fatalf("retried rejected call = (%q, %v), want (done, nil)", resp, err)
	}
	if _, err := blocker.Await(); err != nil {
		t.Errorf("hog call failed: %v", err)
	}
}

// Retry classification: ErrRejected, IO and network failures, and
// injected chaos faults back off and retry;
// ErrClosed and application-level errors fail fast.
func TestRetryableClassification(t *testing.T) {
	retryable := []error{
		ErrRejected,
		fmt.Errorf("attempt 3: %w", ErrRejected), // wrapped
		io.EOF,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		net.ErrClosed,
		&net.OpError{Op: "read", Err: errors.New("connection reset")},
		&chaos.InjectedError{Point: "netstack.read"},
		fmt.Errorf("wrapped: %w", &chaos.InjectedError{Point: "netstack.write"}),
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	final := []error{
		nil,
		ErrClosed,
		fmt.Errorf("call: %w", ErrClosed),
		errors.New("application rejected the request"),
	}
	for _, err := range final {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

// Satellite regression: the retry backoff schedule is bounded and
// deterministic. Doubling stops at MaxBackoff, every delay carries
// half-jitter in [base/2, base], and a pinned seed reproduces the exact
// schedule while different seeds decorrelate.
func TestRetryBackoffBoundedSchedule(t *testing.T) {
	p := RetryPolicy{Max: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 1}
	base := func(n int) time.Duration {
		d := 10 * time.Millisecond
		for i := 1; i < n && d < p.MaxBackoff; i++ {
			d *= 2
		}
		if d > p.MaxBackoff {
			d = p.MaxBackoff
		}
		return d
	}
	for n := 1; n <= 10; n++ {
		d := p.delay(n, 42)
		b := base(n)
		if d < b/2 || d > b {
			t.Errorf("delay(%d) = %v outside jitter window [%v, %v]", n, d, b/2, b)
		}
		if d > p.MaxBackoff {
			t.Errorf("delay(%d) = %v exceeds MaxBackoff %v", n, d, p.MaxBackoff)
		}
		// Deterministic per (seed, nonce, attempt).
		if again := p.delay(n, 42); again != d {
			t.Errorf("delay(%d) not deterministic: %v vs %v", n, d, again)
		}
	}
	// From attempt 4 on (10ms << 3 = 80ms) the base is pinned at the cap.
	for n := 4; n <= 10; n++ {
		d := p.delay(n, 42)
		if d < p.MaxBackoff/2 {
			t.Errorf("capped delay(%d) = %v below half the cap", n, d)
		}
	}

	// Different seeds (and different nonces) must produce different
	// schedules somewhere — lockstep retries are the bug this fixes.
	q := p
	q.Seed = 2
	differs := false
	for n := 1; n <= 10; n++ {
		if p.delay(n, 42) != q.delay(n, 42) || p.delay(n, 42) != p.delay(n, 43) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("jitter identical across seeds and nonces")
	}

	// Defaults: zero-valued policy still bounded by DefaultMaxBackoff.
	var d0 RetryPolicy
	for n := 1; n <= 20; n++ {
		if d := d0.delay(n, 7); d > DefaultMaxBackoff {
			t.Errorf("default delay(%d) = %v exceeds DefaultMaxBackoff", n, d)
		}
	}
}

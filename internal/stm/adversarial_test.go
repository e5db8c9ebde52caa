// Adversarial suite for the STM fast paths: lost-wakeup races on the
// per-ref waiter table, opacity (zombie transactions must never observe an
// inconsistent snapshot), timestamp-extension correctness against a
// coarse-global-lock reference, dropped-wakeup degradation under chaos,
// and the bounded-spin ReadAtomic regression. Wired into `make stress`
// (-race -count=5) via the Wakeup/Opacity/Extension/Racing name patterns.
package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
)

// TestCommitRacingRetryRegistration hammers the exact window the per-ref
// waiter protocol must close: a commit publishing while a Retry-er is
// mid-registration. Every round spawns a waiter on a fresh ref and commits
// the wakeup value immediately, so the commit races registration; a lost
// wakeup shows up as a timeout.
func TestCommitRacingRetryRegistration(t *testing.T) {
	rounds := 500
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		flag := NewRef(false)
		done := make(chan struct{})
		go func() {
			_ = Atomically(func(tx *Tx) error {
				if !tx.Read(flag).(bool) {
					tx.Retry()
				}
				return nil
			})
			close(done)
		}()
		_ = Atomically(func(tx *Tx) error { tx.Write(flag, true); return nil })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: retry-er never woke (lost wakeup)", round)
		}
	}
	waitForNoWaiters(t)
}

// TestRetryWakeupPingPong bounces a token between two guarded blocks for
// many rounds: sustained commit-vs-registration traffic in both
// directions, each wakeup targeted at exactly one parked waiter.
func TestRetryWakeupPingPong(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	token := NewRef(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			want := 2*i + 1
			_ = Atomically(func(tx *Tx) error {
				if tx.Read(token).(int) != want {
					tx.Retry()
				}
				tx.Write(token, want+1)
				return nil
			})
		}
	}()
	for i := 0; i < rounds; i++ {
		_ = Atomically(func(tx *Tx) error { tx.Write(token, 2*i+1); return nil })
		want := 2*i + 2
		_ = Atomically(func(tx *Tx) error {
			if tx.Read(token).(int) != want {
				tx.Retry()
			}
			return nil
		})
	}
	wg.Wait()
	if got := ReadAtomic(token).(int); got != 2*rounds {
		t.Fatalf("token = %d, want %d", got, 2*rounds)
	}
	waitForNoWaiters(t)
}

// waitForNoWaiters asserts the waiter population drains back to zero (no
// leaked registrations keeping the waiter-free commit fast path disabled).
func waitForNoWaiters(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for waiterCount.v.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter count stuck at %d", waiterCount.v.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpacityZombieNeverSeesBrokenInvariant is the opacity check: the
// stm-bench7 sum invariant must hold for every observation made *inside* a
// transaction body — including bodies that are doomed to abort (zombies) —
// not just for committed results. A violation inside the body is recorded
// before the STM gets a chance to abort the attempt.
func TestOpacityZombieNeverSeesBrokenInvariant(t *testing.T) {
	const nRefs = 16
	const initial = 100
	refs := make([]*Ref, nRefs)
	for i := range refs {
		refs[i] = NewRef(initial)
	}
	var violations atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = Atomically(func(tx *Tx) error {
					sum := 0
					for _, ref := range refs {
						sum += tx.Read(ref).(int)
					}
					if sum != nRefs*initial {
						violations.Add(1)
					}
					return nil
				})
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w + 1)
			next := func(bound int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(bound))
			}
			for i := 0; i < 2000; i++ {
				a, b := next(nRefs), next(nRefs)
				if a == b {
					continue
				}
				_ = Atomically(func(tx *Tx) error {
					av := tx.Read(refs[a]).(int)
					bv := tx.Read(refs[b]).(int)
					tx.Write(refs[a], av-3)
					tx.Write(refs[b], bv+3)
					return nil
				})
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d in-body invariant violations (opacity broken)", v)
	}
}

// TestTimestampExtensionAllowsStaleRead pins the extension rule: a read
// that observes a version newer than the transaction's timestamp succeeds
// without aborting when the rest of the read set is unchanged.
func TestTimestampExtensionAllowsStaleRead(t *testing.T) {
	a := NewRef(1)
	b := NewRef(2)
	var extensions, aborts int
	if err := Atomically(func(tx *Tx) error {
		if tx.Read(a).(int) != 1 {
			t.Error("unexpected a")
		}
		if tx.Aborts == 0 {
			// Bump b's version past our read timestamp with an
			// independent committed transaction.
			_ = Atomically(func(tx *Tx) error { tx.Write(b, 3); return nil })
		}
		if got := tx.Read(b).(int); got != 3 {
			t.Errorf("b = %d, want 3 (post-extension value)", got)
		}
		extensions, aborts = tx.Extensions, tx.Aborts
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if extensions != 1 || aborts != 0 {
		t.Fatalf("extensions = %d, aborts = %d; want 1 extension on the first attempt", extensions, aborts)
	}
}

// TestTimestampExtensionRefusesChangedRead pins the converse: when a ref
// already in the read set has changed, extension must fail and the attempt
// must abort rather than serve a mixed snapshot.
func TestTimestampExtensionRefusesChangedRead(t *testing.T) {
	a := NewRef(1)
	b := NewRef(2)
	first := true
	var finalA int
	if err := Atomically(func(tx *Tx) error {
		av := tx.Read(a).(int)
		if first {
			first = false
			_ = Atomically(func(tx *Tx) error { tx.Write(a, 10); return nil }) // invalidates the read we just made
			_ = Atomically(func(tx *Tx) error { tx.Write(b, 20); return nil }) // and bumps b past our timestamp
		}
		bv := tx.Read(b).(int) // must not see (a=1, b=20)
		if av == 1 && bv == 20 {
			t.Error("observed mixed snapshot across a failed extension")
		}
		finalA = av
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if finalA != 10 {
		t.Fatalf("final attempt read a = %d, want 10", finalA)
	}
}

// TestDifferentialExtensionVsGlobalLockReference is the differential
// property test: a random transfer schedule executed concurrently on the
// TL2 STM (with traversals forcing timestamp extensions) must land in
// exactly the state the coarse-global-lock reference STM computes for the
// same ops — transfer effects commute, so the final state is
// schedule-independent.
func TestDifferentialExtensionVsGlobalLockReference(t *testing.T) {
	type op struct {
		From, To uint8
		Amount   uint8
	}
	const nRefs = 24
	const initial = 1000
	const workers = 4
	f := func(ops []op) bool {
		refs := make([]*Ref, nRefs)
		for i := range refs {
			refs[i] = NewRef(initial)
		}
		ref := newGLSTM(nRefs, initial)

		// Partition the schedule across workers; run the same partitions
		// on both STMs (the reference serializes via its global lock).
		var wg, traversals sync.WaitGroup
		stop := make(chan struct{})
		traversals.Add(1)
		go func() { // traversal pressure: long read-only scans, extensions on
			defer traversals.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = Atomically(func(tx *Tx) error {
					sum := 0
					for _, r := range refs {
						sum += tx.Read(r).(int)
					}
					if sum != nRefs*initial {
						t.Errorf("traversal sum = %d, want %d", sum, nRefs*initial)
					}
					return nil
				})
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ops); i += workers {
					o := ops[i]
					from, to := int(o.From%nRefs), int(o.To%nRefs)
					amount := int(o.Amount % 50)
					if from == to {
						continue
					}
					_ = Atomically(func(tx *Tx) error {
						f := tx.Read(refs[from]).(int)
						tv := tx.Read(refs[to]).(int)
						tx.Write(refs[from], f-amount)
						tx.Write(refs[to], tv+amount)
						return nil
					})
					ref.atomically(func(vals []int) {
						vals[from] -= amount
						vals[to] += amount
					})
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		traversals.Wait()

		want := ref.snapshot()
		for i := range refs {
			if got := ReadAtomic(refs[i]).(int); got != want[i] {
				t.Errorf("ref %d = %d, reference STM has %d", i, got, want[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestLongTraversalExtensionUnderWrites is the livelock acceptance test:
// a long read-only traversal (reading every ref, yielding between reads so
// short transfers land mid-traversal) must complete against sustained
// write traffic — plain TL2 would abort every time the clock moves, the
// extension rule lets the traversal carry its validated prefix forward.
func TestLongTraversalExtensionUnderWrites(t *testing.T) {
	const quiet = 48 // refs the writers never touch, read first
	const busy = 16  // refs under constant transfer load, read second
	refs := make([]*Ref, quiet+busy)
	for i := range refs {
		refs[i] = NewRef(100)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w + 7)
			next := func(bound int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(bound))
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := quiet+next(busy), quiet+next(busy)
				if a == b {
					continue
				}
				_ = Atomically(func(tx *Tx) error {
					av := tx.Read(refs[a]).(int)
					bv := tx.Read(refs[b]).(int)
					tx.Write(refs[a], av-1)
					tx.Write(refs[b], bv+1)
					return nil
				})
				if i%8 == 7 {
					time.Sleep(200 * time.Microsecond) // sustained, not saturating
				}
			}
		}(w)
	}

	extBefore := metrics.Default.Get(metrics.StmExtend)
	deadline := time.After(20 * time.Second)
	done := make(chan int, 1)
	go func() {
		sum := 0
		_ = Atomically(func(tx *Tx) error {
			sum = 0
			for i, r := range refs {
				sum += tx.Read(r).(int)
				if i%16 == 15 {
					runtime.Gosched() // invite concurrent commits mid-scan
				}
			}
			return nil
		})
		done <- sum
	}()
	select {
	case sum := <-done:
		if sum != len(refs)*100 {
			t.Fatalf("traversal sum = %d, want %d", sum, len(refs)*100)
		}
	case <-deadline:
		t.Fatal("long read-only traversal livelocked under write load")
	}
	close(stop)
	wg.Wait()
	if metrics.Default.Get(metrics.StmExtend) == extBefore {
		t.Log("note: traversal completed without needing an extension (low contention run)")
	}
}

// TestChaosDroppedWakeupStillMakesProgress drives the stm.wake injection
// point at rate 1 — every waiter signal is dropped — and requires the
// guarded-block traffic to complete anyway via periodic revalidation:
// dropped wakeups must degrade to latency, never to a hang.
func TestChaosDroppedWakeupStillMakesProgress(t *testing.T) {
	chaos.SetRate("stm.wake", 1)
	defer chaos.Configure(0, 0)

	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	token := NewRef(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			want := 2*i + 1
			_ = Atomically(func(tx *Tx) error {
				if tx.Read(token).(int) != want {
					tx.Retry()
				}
				tx.Write(token, want+1)
				return nil
			})
		}
	}()
	for i := 0; i < rounds; i++ {
		_ = Atomically(func(tx *Tx) error { tx.Write(token, 2*i+1); return nil })
		want := 2*i + 2
		_ = Atomically(func(tx *Tx) error {
			if tx.Read(token).(int) != want {
				tx.Retry()
			}
			return nil
		})
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("progress lost under dropped wakeups")
	}
	if chaos.FireCount("stm.wake") == 0 {
		t.Fatal("stm.wake never fired; the dropped-wakeup path was not exercised")
	}
	waitForNoWaiters(t)
}

// TestReadAtomicBoundedSpinWhileLocked is the regression test for the
// seed's unbounded busy-spin: a reader that hits a write-locked ref must
// fall back to yielding (park metric) instead of spinning hot, and must
// complete once the lock is released.
func TestReadAtomicBoundedSpinWhileLocked(t *testing.T) {
	r := NewRef(42)
	s := r.state.Load()
	r.state.Store(s | 1) // hold the write lock across a parked reader

	parkBefore := metrics.Default.Get(metrics.Park)
	done := make(chan any, 1)
	go func() { done <- ReadAtomic(r) }()

	time.Sleep(20 * time.Millisecond)
	select {
	case v := <-done:
		t.Fatalf("ReadAtomic returned %v while the ref was locked", v)
	default:
	}
	if got := metrics.Default.Get(metrics.Park); got <= parkBefore {
		t.Error("locked-out reader never yielded (park metric flat)")
	}

	r.state.Store(s) // release at the old version
	select {
	case v := <-done:
		if v.(int) != 42 {
			t.Fatalf("ReadAtomic = %v, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never completed after unlock")
	}
}

// TestPooledTxZeroAllocSteadyState is the acceptance assertion for the
// allocation-free fast path: a warmed-up read-write transaction (two
// reads, two writes, waiter-free commit) performs zero heap allocations.
// Values are small ints, which the runtime boxes statically.
func TestPooledTxZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	a := NewRef(1)
	b := NewRef(2)
	body := func(tx *Tx) error {
		av := tx.Read(a).(int)
		bv := tx.Read(b).(int)
		tx.Write(a, bv&0xff)
		tx.Write(b, av&0xff)
		return nil
	}
	// Warm the pool and the vectors.
	for i := 0; i < 100; i++ {
		_ = Atomically(body)
	}
	if avg := testing.AllocsPerRun(1000, func() { _ = Atomically(body) }); avg != 0 {
		t.Fatalf("waiter-free read-write commit allocates %.2f objects/op, want 0", avg)
	}
}

// Adversarial tests for the lineage recovery engine: injected-fault
// recompute, retry-budget exhaustion, recovery racing concurrent actions
// on a shared cache, and shuffle epoch retries. Names match the stress
// regex in the Makefile so `make stress` shakes them under -race.
package rdd

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"renaissance/internal/chaos"
	"renaissance/internal/forkjoin"
)

// chaosQuiet configures the chaos engine with only the named points armed
// (global rate 0) and restores a dormant engine when the test ends.
func chaosQuiet(t *testing.T, seed int64, rates map[string]float64) {
	t.Helper()
	chaos.Configure(seed, 0)
	for name, r := range rates {
		chaos.SetRate(name, r)
	}
	t.Cleanup(func() {
		chaos.Configure(seed, 0)
		chaos.Disable()
	})
}

// recovered runs f and returns the *forkjoin.TaskError it re-panics at
// the join, or nil when it returns normally.
func recovered(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			te, ok := p.(*forkjoin.TaskError)
			if !ok {
				panic(p)
			}
			err = te
		}
	}()
	f()
	return nil
}

func TestRecomputeRecoversInjectedTaskFaults(t *testing.T) {
	// Every first attempt fails (rdd.task at rate 1); every recompute
	// succeeds (rdd.recompute dormant). The action must still deliver the
	// exact fault-free result, with one recompute per partition.
	chaosQuiet(t, 11, map[string]float64{"rdd.task": 1})

	r := Map(Parallelize(ints(200), 8), func(x int) int { return x * 3 })
	got, err := collectE(r)
	if err != nil {
		t.Fatalf("collectE under full first-attempt injection: %v", err)
	}
	want := make([]int, 200)
	for i := range want {
		want[i] = i * 3
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered result differs from fault-free result")
	}
	if fires := chaos.FireCount("rdd.task"); fires < 8 {
		t.Errorf("rdd.task fired %d times, want >= 8 (one per partition)", fires)
	}
	if fires := chaos.FireCount("rdd.recompute"); fires != 0 {
		t.Errorf("rdd.recompute fired %d times while dormant", fires)
	}
}

func TestRecomputeRecoversInjectedClaimFaults(t *testing.T) {
	// Only the job's own forkjoin.claim point is armed. It sits inside the
	// partition retry loop, so a claim fault costs one recompute and both a
	// narrow and a wide action stay bit-identical to the fault-free run.
	// (Before partitions ran on forkjoin's job the point was not on the
	// partition path at all, so nothing fired.)
	run := func() ([]int, map[int]int) {
		base := Parallelize(ints(300), 8)
		narrow, err := collectE(Map(base, func(x int) int { return x*x - x }))
		if err != nil {
			t.Fatalf("collectE: %v", err)
		}
		pairs := Map(base, func(x int) Pair[int, int] { return Pair[int, int]{x % 17, x} })
		return narrow, collectAsMap(ReduceByKey(pairs, 4, func(a, b int) int { return a + b }))
	}
	chaos.Disable()
	wantNarrow, wantByKey := run()

	chaosQuiet(t, 7, map[string]float64{"forkjoin.claim": 0.2})
	gotNarrow, gotByKey := run()
	if !reflect.DeepEqual(gotNarrow, wantNarrow) || !reflect.DeepEqual(gotByKey, wantByKey) {
		t.Fatal("run under injected claim faults diverged from fault-free run")
	}
	if chaos.FireCount("forkjoin.claim") == 0 {
		t.Fatal("forkjoin.claim never fired on the partition path")
	}

	// All four points on the partition path armed together.
	for _, pt := range []string{"rdd.task", "rdd.recompute", "rdd.shuffle", "forkjoin.claim"} {
		chaos.SetRate(pt, 0.05)
	}
	gotNarrow, gotByKey = run()
	if !reflect.DeepEqual(gotNarrow, wantNarrow) || !reflect.DeepEqual(gotByKey, wantByKey) {
		t.Fatal("run under all four injected points diverged from fault-free run")
	}

	// A claim fault on every attempt spends the budget and surfaces as the
	// one TaskError wrapping the injected fault.
	chaos.Configure(7, 0)
	chaos.SetRate("forkjoin.claim", 1)
	_, err := collectE(Parallelize(ints(64), 4))
	var te *forkjoin.TaskError
	var inj *chaos.InjectedError
	if !errors.As(err, &te) || !errors.As(err, &inj) || inj.Point != "forkjoin.claim" {
		t.Fatalf("collectE error = %v, want *forkjoin.TaskError wrapping the forkjoin.claim fault", err)
	}
}

func TestRetryBudgetExhaustionSurfacesTaskError(t *testing.T) {
	// Both the first attempt and every recompute fail: the budget is spent
	// and the final injected fault surfaces as a *forkjoin.TaskError, the
	// pre-recovery action contract.
	chaosQuiet(t, 11, map[string]float64{"rdd.task": 1, "rdd.recompute": 1})

	r := Map(Parallelize(ints(64), 4), func(x int) int { return x + 1 })
	_, err := collectE(r)
	var te *forkjoin.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("collectE error = %v, want *forkjoin.TaskError", err)
	}
	var inj *chaos.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("TaskError does not wrap the injected fault: %v", err)
	}
	if inj.Point != "rdd.task" && inj.Point != "rdd.recompute" {
		t.Errorf("injected fault from point %q, want an rdd point", inj.Point)
	}

	// The failure must not poison anything: disarm and the same pipeline
	// evaluates cleanly.
	chaos.Configure(11, 0)
	if got, err := collectE(r); err != nil || len(got) != 64 {
		t.Fatalf("re-evaluation after exhaustion = (%d elems, %v), want (64, nil)", len(got), err)
	}
}

func TestRecomputeRacingConcurrentActionsOnCachedRDD(t *testing.T) {
	// Concurrent actions race over one cached RDD while first attempts
	// fail half the time. Recovery re-runs partitions — cache fills
	// included — and every action must agree with the fault-free result;
	// the cache must still compute each partition's *published* value
	// exactly once per fill (no torn or partial slices observable).
	chaosQuiet(t, 7, map[string]float64{"rdd.task": 0.5})

	base := Map(Parallelize(ints(400), 8), func(x int) int { return x * 7 }).Cache()
	wantSum := 0
	for _, x := range ints(400) {
		wantSum += x * 7
	}

	const actors = 6
	var wg sync.WaitGroup
	errs := make([]error, actors)
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			if a%2 == 0 {
				var n int
				err := recovered(func() { n = base.Count() })
				if err == nil && n != 400 {
					err = errors.New("count mismatch")
				}
				errs[a] = err
				return
			}
			var sum int
			err := recovered(func() {
				sum = Aggregate(base, func() int { return 0 },
					func(x, y int) int { return x + y }, func(x, y int) int { return x + y })
			})
			if err == nil && sum != wantSum {
				err = errors.New("sum mismatch")
			}
			errs[a] = err
		}(a)
	}
	wg.Wait()
	for a, err := range errs {
		if err != nil {
			t.Fatalf("concurrent action %d: %v", a, err)
		}
	}
}

func TestShuffleEpochRetryAfterInjectedExchangeFault(t *testing.T) {
	// While rdd.shuffle fires at rate 1, every exchange attempt fails and
	// the action degrades to a TaskError once the budgets are spent — the
	// exchange is NOT poisoned: disarming the point, the next action
	// retries the whole two-phase shuffle under a fresh epoch and
	// succeeds.
	chaosQuiet(t, 3, map[string]float64{"rdd.shuffle": 1})

	pairs := Map(Parallelize(ints(120), 6), func(x int) Pair[int, int] {
		return Pair[int, int]{x % 10, x}
	})
	sums := ReduceByKey(pairs, 4, func(a, b int) int { return a + b })

	if _, err := collectE(sums); err == nil {
		t.Fatal("action succeeded while every exchange attempt was failing")
	}
	failedEpochs := sums.ShuffleEpochs()
	if failedEpochs < 1 {
		t.Fatalf("ShuffleEpochs = %d after failed exchange attempts, want >= 1", failedEpochs)
	}

	chaos.Configure(3, 0) // disarm; next consumer retries under a fresh epoch
	got, err := collectE(sums)
	if err != nil {
		t.Fatalf("post-fault exchange retry failed: %v", err)
	}
	if sums.ShuffleEpochs() <= failedEpochs {
		t.Errorf("ShuffleEpochs = %d, want > %d (a fresh epoch per retried exchange)",
			sums.ShuffleEpochs(), failedEpochs)
	}
	want := map[int]int{}
	for _, x := range ints(120) {
		want[x%10] += x
	}
	gotMap := map[int]int{}
	for _, kv := range got {
		gotMap[kv.Key] = kv.Value
	}
	if !reflect.DeepEqual(gotMap, want) {
		t.Fatal("retried exchange produced different sums than fault-free")
	}
}

// TestChaosDifferentialBitIdentical asserts the recovery engine's core
// guarantee: under injected faults on every rdd chaos point at rates up to
// 0.05, every action's result — through a mid-chain Cache, narrow and wide
// dependencies, and the ML kernels — is bit-identical to
// the fault-free run.
func TestChaosDifferentialBitIdentical(t *testing.T) {
	type results struct {
		collected []int
		count     int
		sum       int
		cached    []int
		byKey     map[int]int
		grouped   map[int][]int
		nbPrior   []float64
		chi       []float64
		logw      []float64
		ranks     []float64
	}

	run := func() results {
		var r results
		base := Parallelize(ints(300), 8)

		narrow := Map(base, func(x int) int { return x*x - x })
		r.collected = collect(narrow)
		r.count = narrow.Count()
		r.sum = Aggregate(narrow, func() int { return 0 },
			func(a, b int) int { return a + b }, func(a, b int) int { return a + b })

		cached := Map(base, func(x int) int { return x + 13 }).Cache()
		r.cached = collect(Map(cached, func(x int) int { return x * 2 }))

		pairs := Map(base, func(x int) Pair[int, int] { return Pair[int, int]{x % 17, x} })
		r.byKey = collectAsMap(ReduceByKey(pairs, 4, func(a, b int) int { return a + b }))
		r.grouped = collectAsMap(groupByKey(pairs, 4))

		points := NewPoints(300, 3)
		for x := range points.Labels {
			points.Labels[x] = int32(x % 2)
			copy(points.X.Row(x), []float64{float64(x%7) + 1, float64(x%5) + 1, float64(x % 3)})
		}
		nb, err := NaiveBayes(points, 2)
		if err != nil {
			t.Fatalf("NaiveBayes: %v", err)
		}
		r.nbPrior = nb.ClassLogPrior
		r.chi = ChiSquare(points, 2, 4)
		r.logw, err = LogisticRegression(points, 5, 0.1)
		if err != nil {
			t.Fatalf("LogisticRegression: %v", err)
		}

		var edges []Pair[int, int]
		for i := 0; i < 60; i++ {
			edges = append(edges,
				Pair[int, int]{i, (i*i + 1) % 60},
				Pair[int, int]{i, (i + 7) % 60})
		}
		r.ranks = NewGraph(edges).PageRank(10, 0.85)
		return r
	}

	chaos.Disable()
	t.Cleanup(chaos.Disable)
	want := run()

	for _, seed := range []int64{1, 7, 13} {
		for _, rate := range []float64{0.01, 0.05} {
			chaos.Configure(seed, 0)
			for _, pt := range []string{"rdd.task", "rdd.recompute", "rdd.shuffle"} {
				chaos.SetRate(pt, rate)
			}
			got := run()
			// Read fire counts before Configure resets them. At rate 0.01 a
			// seed can legitimately fire nothing; at 0.05 over hundreds of
			// trials a silent run means the points aren't wired in.
			fires := chaos.FireCount("rdd.task") +
				chaos.FireCount("rdd.recompute") + chaos.FireCount("rdd.shuffle")
			chaos.Configure(seed, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d rate=%g: chaos run diverged from fault-free run", seed, rate)
			}
			if rate >= 0.05 && fires == 0 {
				t.Fatalf("seed=%d rate=%g: no rdd faults fired — differential proved nothing", seed, rate)
			}
		}
	}
}

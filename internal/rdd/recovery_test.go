// Adversarial tests for the lineage recovery engine: injected-fault
// recompute, retry-budget exhaustion, and recovery racing concurrent
// actions on a shared dataset. Names match the stress regex in the
// Makefile so `make stress` shakes them under -race.
package rdd

import (
	"errors"
	"math"
	"math/rand"
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
	// succeeds (rdd.recompute dormant). Map must still deliver the exact
	// fault-free result, with one recompute per partition.
	chaosQuiet(t, 11, map[string]float64{"rdd.task": 1})

	got, err := collectE(func() *RDD[int] {
		return Map(Parallelize(ints(200), 8), func(x int) int { return x * 3 })
	})
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
	// narrow and a wide transformation stay bit-identical to the
	// fault-free run.
	// (Before partitions ran on forkjoin's job the point was not on the
	// partition path at all, so nothing fired.)
	run := func() ([]int, map[int]int) {
		base := Parallelize(ints(300), 8)
		narrow, err := collectE(func() *RDD[int] { return Map(base, func(x int) int { return x*x - x }) })
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

	// All three points on the partition path armed together.
	for _, pt := range []string{"rdd.task", "rdd.recompute", "forkjoin.claim"} {
		chaos.SetRate(pt, 0.05)
	}
	gotNarrow, gotByKey = run()
	if !reflect.DeepEqual(gotNarrow, wantNarrow) || !reflect.DeepEqual(gotByKey, wantByKey) {
		t.Fatal("run under all three injected points diverged from fault-free run")
	}

	// A claim fault on every attempt spends the budget and surfaces as the
	// one TaskError wrapping the injected fault.
	chaos.Configure(7, 0)
	chaos.SetRate("forkjoin.claim", 1)
	_, err := collectE(func() *RDD[int] {
		return Map(Parallelize(ints(64), 4), func(x int) int { return x })
	})
	var te *forkjoin.TaskError
	var inj *chaos.InjectedError
	if !errors.As(err, &te) || !errors.As(err, &inj) || inj.Point != "forkjoin.claim" {
		t.Fatalf("collectE error = %v, want *forkjoin.TaskError wrapping the forkjoin.claim fault", err)
	}
}

func TestRetryBudgetExhaustionSurfacesTaskError(t *testing.T) {
	// Both the first attempt and every recompute fail: the budget is spent
	// and the final injected fault surfaces from Map as a
	// *forkjoin.TaskError, the pre-recovery contract.
	chaosQuiet(t, 11, map[string]float64{"rdd.task": 1, "rdd.recompute": 1})

	build := func() *RDD[int] {
		return Map(Parallelize(ints(64), 4), func(x int) int { return x + 1 })
	}
	_, err := collectE(build)
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
	if got, err := collectE(build); err != nil || len(got) != 64 {
		t.Fatalf("re-evaluation after exhaustion = (%d elems, %v), want (64, nil)", len(got), err)
	}

	// An action spends its budget the same way: Count, which runs no user
	// code, re-panics the injected fault at its own join.
	r := build()
	chaos.SetRate("rdd.task", 1)
	chaos.SetRate("rdd.recompute", 1)
	if err := recovered(func() { r.Count() }); !errors.As(err, &te) || !errors.As(err, &inj) {
		t.Fatalf("Count under exhaustion re-panicked %v, want a *forkjoin.TaskError wrapping the injected fault", err)
	}
}

func TestRecomputeRacingConcurrentActionsOnCachedRDD(t *testing.T) {
	// Concurrent actions race over one cached RDD while first attempts
	// fail half the time. Recovery re-runs partitions of the Map that
	// builds it and of every action, and every action must agree with the
	// fault-free result.
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

// TestChaosDifferentialBitIdentical asserts the recovery engine's core
// guarantee: under injected faults on both rdd chaos points at rates up to
// 0.05, and on the job's own forkjoin.claim point, every result — through
// a mid-chain Cache, narrow and wide transformations, the actions and the
// seven ML kernels — is bit-identical to the fault-free run.
//
// No leg may spend a recompute budget (the kernel would return its
// TaskError and the test fail), and a chunk spends its budget only when all
// four of its attempts fail. The seed pins every decision by trial index;
// the interleaving decides only which chunk meets which trial.
//   - rdd.* legs: a run makes ≈ 468 chunk passes at GOMAXPROCS 2, and
//     among the retries a leg reaches rdd.recompute fires at most once
//     (twice at GOMAXPROCS 4), so no chunk can fail three retries,
//     whatever the interleaving.
//   - claim leg: forkjoin.claim alone at q = claimRate fails all four
//     attempts of a chunk with probability q⁴ ≈ 2.6e-10. The three claim
//     legs make ≈ 3 × 468 chunk passes (3 × 608 at GOMAXPROCS 4), so the
//     chance that they spend any budget is ≈ 3.6e-7 (4.7e-7), below
//     1e-6, and the point still fires a few times.
func TestChaosDifferentialBitIdentical(t *testing.T) {
	const claimRate = 0.004
	type results struct {
		collected []int
		count     int
		sum       int
		cached    []int
		byKey     map[int]int
		grouped   map[int][]int
		nbPrior   []float64
		nbAcc     float64
		chi       []float64
		logw      []float64
		logAcc    float64
		ranks     []float64
		alsUsers  []uint64 // factor bits
		alsItems  []uint64
		tree      *TreeNode
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

		// The same features as a byte-coded set for the counting kernels
		// and a float64 one for logistic regression.
		counts, points := NewCounts(300, 3), NewPoints(300, 3)
		for x := range points.Labels {
			counts.Labels[x], points.Labels[x] = uint8(x%2), uint8(x%2)
			copy(counts.Row(x), []uint8{uint8(x%7) + 1, uint8(x%5) + 1, uint8(x % 3)})
			copy(points.X.Row(x), []float64{float64(x%7) + 1, float64(x%5) + 1, float64(x % 3)})
		}
		nb, err := NaiveBayes(counts, 2)
		if err != nil {
			t.Fatalf("NaiveBayes: %v", err)
		}
		r.nbPrior = nb.ClassLogPrior
		r.nbAcc, err = Accuracy(counts.Labels, func(i int) int { return nb.Predict(counts.Row(i)) })
		if err != nil {
			t.Fatalf("Accuracy: %v", err)
		}
		if r.chi, err = ChiSquare(counts, 2, 4); err != nil {
			t.Fatalf("ChiSquare: %v", err)
		}
		r.logw, err = LogisticRegression(points, 5, 0.1)
		if err != nil {
			t.Fatalf("LogisticRegression: %v", err)
		}
		r.logAcc, err = Accuracy(points.Labels, func(i int) int {
			if PredictLogistic(r.logw, points.X.Row(i)) > 0.5 {
				return 1
			}
			return 0
		})
		if err != nil {
			t.Fatalf("Accuracy: %v", err)
		}

		var edges []Pair[int, int]
		for i := 0; i < 60; i++ {
			edges = append(edges,
				Pair[int, int]{i, (i*i + 1) % 60},
				Pair[int, int]{i, (i + 7) % 60})
		}
		if r.ranks, err = NewGraph(edges).PageRank(10, 0.85); err != nil {
			t.Fatalf("PageRank: %v", err)
		}

		als, err := ALSTrain(NewRatingsGraph(syntheticRatings(rand.New(rand.NewSource(3)), 30, 20, 3)), 3, 4, 0.05, 7)
		if err != nil {
			t.Fatalf("ALSTrain: %v", err)
		}
		for _, v := range als.Users.Data {
			r.alsUsers = append(r.alsUsers, math.Float64bits(v))
		}
		for _, v := range als.Items.Data {
			r.alsItems = append(r.alsItems, math.Float64bits(v))
		}
		if r.tree, err = DecisionTree(points, 2, 4, 1); err != nil {
			t.Fatalf("DecisionTree: %v", err)
		}
		return r
	}

	chaos.Disable()
	t.Cleanup(chaos.Disable)
	want := run()

	var claimFires int64
	for _, seed := range []int64{1, 7, 13} {
		for _, rate := range []float64{0.01, 0.05} {
			chaos.Configure(seed, 0)
			for _, pt := range []string{"rdd.task", "rdd.recompute"} {
				chaos.SetRate(pt, rate)
			}
			got := run()
			// Read fire counts before Configure resets them. At rate 0.01 a
			// seed can legitimately fire nothing; at 0.05 over hundreds of
			// trials a silent run means the points aren't wired in.
			fires := chaos.FireCount("rdd.task") + chaos.FireCount("rdd.recompute")
			chaos.Configure(seed, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d rate=%g: chaos run diverged from fault-free run", seed, rate)
			}
			if rate >= 0.05 && fires == 0 {
				t.Fatalf("seed=%d rate=%g: no rdd faults fired — differential proved nothing", seed, rate)
			}
		}

		chaos.Configure(seed, 0)
		chaos.SetRate("forkjoin.claim", claimRate)
		got := run()
		claimFires += chaos.FireCount("forkjoin.claim")
		chaos.Configure(seed, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d forkjoin.claim=%g: chaos run diverged from fault-free run", seed, claimRate)
		}
	}
	if claimFires == 0 {
		t.Fatal("forkjoin.claim never fired — the claim leg proved nothing")
	}
}

package rdd

import (
	"errors"
	"reflect"
	"testing"

	"renaissance/internal/forkjoin"
)

func TestCollectEPanicSurfacesTaskError(t *testing.T) {
	got, err := collectE(func() *RDD[int] {
		return Map(Parallelize(ints(100), 8), func(x int) int {
			if x == 42 {
				panic("element failure")
			}
			return x * 2
		})
	})
	var te *forkjoin.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("collectE error = %v, want *forkjoin.TaskError", err)
	}
	if te.Value != "element failure" {
		t.Errorf("TaskError.Value = %v, want element failure", te.Value)
	}
	if got != nil {
		t.Errorf("collectE returned data %v alongside an error", got)
	}
}

func TestCollectECleanMatchesCollect(t *testing.T) {
	r := Map(Parallelize(ints(50), 4), func(x int) int { return x + 1 })
	got, err := collectE(func() *RDD[int] { return r })
	if err != nil {
		t.Fatalf("collectE: %v", err)
	}
	if !reflect.DeepEqual(got, refMap(ints(50), func(x int) int { return x + 1 })) || r.Count() != len(got) {
		t.Error("collectE, Count and the sequential map disagree on a clean pipeline")
	}
}

func TestLegacyCollectStillPanicsOnFault(t *testing.T) {
	// Without the error return, a persistent partition failure re-panics
	// at the join of the transformation that ran it: Map itself panics and
	// returns no dataset, so no later collect is reached.
	var r *RDD[int]
	err := recovered(func() {
		r = Map(Parallelize(ints(32), 4), func(x int) int {
			if x == 10 {
				panic("legacy rdd")
			}
			return x
		})
	})
	if _, ok := err.(*forkjoin.TaskError); !ok {
		t.Fatalf("Map re-panicked %v, want a *forkjoin.TaskError", err)
	}
	if r != nil {
		t.Fatal("Map returned a dataset alongside its failure")
	}
}

func TestCollectEAfterFaultPipelineReusable(t *testing.T) {
	// A failed transformation must not poison the shared executor: the
	// same pipeline built again without the fault succeeds.
	var arm = true
	build := func() *RDD[int] {
		return Map(Parallelize(ints(40), 8), func(x int) int {
			if arm && x == 0 {
				panic("one-shot")
			}
			return x
		})
	}
	if _, err := collectE(build); err == nil {
		t.Fatal("armed pipeline did not fail")
	}
	arm = false
	got, err := collectE(build)
	if err != nil || len(got) != 40 {
		t.Fatalf("re-evaluation = (%d elems, %v), want (40, nil)", len(got), err)
	}
}

func TestKernelPersistentFaultReturnsTaskError(t *testing.T) {
	// Every attempt of every chunk fails: each of the seven kernel entry
	// points spends the recompute budget and returns the final failure as
	// an error and no result, instead of re-panicking it.
	chaosQuiet(t, 5, map[string]float64{"rdd.task": 1, "rdd.recompute": 1})
	counts, points := NewCounts(64, 2), NewPoints(64, 2)
	var ratings []Rating
	var edges []Pair[int, int]
	for i := range counts.Labels {
		counts.Labels[i], points.Labels[i] = uint8(i%2), uint8(i%2)
		copy(counts.Row(i), []uint8{uint8(i % 2), uint8(i % 3)})
		copy(points.X.Row(i), []float64{float64(i % 2), float64(i % 3)})
		ratings = append(ratings, Rating{User: i % 8, Item: i / 8, Value: float64(i % 5)})
		edges = append(edges, KV(i, (i*7+1)%64))
	}
	kernels := []struct {
		name string
		run  func() (empty bool, err error)
	}{
		{"NaiveBayes", func() (bool, error) { m, err := NaiveBayes(counts, 2); return m == nil, err }},
		{"ChiSquare", func() (bool, error) { s, err := ChiSquare(counts, 2, 4); return s == nil, err }},
		{"LogisticRegression", func() (bool, error) { w, err := LogisticRegression(points, 3, 0.1); return w == nil, err }},
		{"DecisionTree", func() (bool, error) { tr, err := DecisionTree(points, 2, 4, 1); return tr == nil, err }},
		{"ALSTrain", func() (bool, error) {
			m, err := ALSTrain(NewRatingsGraph(ratings), 2, 2, 0.05, 7)
			return m == nil, err
		}},
		{"PageRank", func() (bool, error) { r, err := NewGraph(edges).PageRank(3, 0.85); return r == nil, err }},
		{"Accuracy", func() (bool, error) {
			acc, err := Accuracy(counts.Labels, func(i int) int { return int(counts.Labels[i]) })
			return acc == 0, err
		}},
	}
	for _, k := range kernels {
		empty, err := k.run()
		var te *forkjoin.TaskError
		if !errors.As(err, &te) {
			t.Errorf("%s error = %v, want *forkjoin.TaskError", k.name, err)
		}
		if !empty {
			t.Errorf("%s returned a result alongside an error", k.name)
		}
	}
}

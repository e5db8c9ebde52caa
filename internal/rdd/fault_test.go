package rdd

import (
	"errors"
	"reflect"
	"testing"

	"renaissance/internal/forkjoin"
)

func TestCollectEPanicSurfacesTaskError(t *testing.T) {
	r := Map(Parallelize(ints(100), 8), func(x int) int {
		if x == 42 {
			panic("element failure")
		}
		return x * 2
	})
	got, err := r.CollectE()
	var te *forkjoin.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("CollectE error = %v, want *forkjoin.TaskError", err)
	}
	if te.Value != "element failure" {
		t.Errorf("TaskError.Value = %v, want element failure", te.Value)
	}
	if got != nil {
		t.Errorf("CollectE returned data %v alongside an error", got)
	}
}

func TestCollectECleanMatchesCollect(t *testing.T) {
	r := Map(Parallelize(ints(50), 4), func(x int) int { return x + 1 })
	got, err := r.CollectE()
	if err != nil {
		t.Fatalf("CollectE: %v", err)
	}
	if !reflect.DeepEqual(got, r.Collect()) {
		t.Error("CollectE and Collect disagree on a clean pipeline")
	}
}

func TestCountESurfacesErrors(t *testing.T) {
	bad := Parallelize(ints(64), 8).Filter(func(x int) bool {
		if x == 7 {
			panic("filter failure")
		}
		return x%2 == 0
	})
	if _, err := bad.CountE(); err == nil {
		t.Error("CountE returned nil error for a panicking pipeline")
	}

	good := Parallelize(ints(64), 8)
	n, err := good.CountE()
	if err != nil || n != 64 {
		t.Errorf("CountE = (%d, %v), want (64, nil)", n, err)
	}
}

func TestAggregateEFaultAndClean(t *testing.T) {
	r := Parallelize(ints(100), 8)
	sum, err := AggregateE(r,
		func() int { return 0 },
		func(a, x int) int { return a + x },
		func(a, b int) int { return a + b })
	if err != nil || sum != 4950 {
		t.Errorf("AggregateE = (%d, %v), want (4950, nil)", sum, err)
	}

	bad := Map(r, func(x int) int {
		if x == 99 {
			panic("agg failure")
		}
		return x
	})
	if _, err := AggregateE(bad,
		func() int { return 0 },
		func(a, x int) int { return a + x },
		func(a, b int) int { return a + b }); err == nil {
		t.Error("AggregateE returned nil error for a panicking pipeline")
	}
}

func TestLegacyCollectStillPanicsOnFault(t *testing.T) {
	// The legacy action keeps the fork/join re-panic contract so existing
	// callers see failures exactly as before.
	defer func() {
		if _, ok := recover().(*forkjoin.TaskError); !ok {
			t.Fatal("Collect did not re-panic a *forkjoin.TaskError")
		}
	}()
	Map(Parallelize(ints(32), 4), func(x int) int {
		if x == 10 {
			panic("legacy rdd")
		}
		return x
	}).Collect()
	t.Fatal("Collect returned normally")
}

func TestCollectEAfterFaultPipelineReusable(t *testing.T) {
	// A failed action must not poison the shared executor: the same (narrow)
	// pipeline evaluated again without the fault succeeds.
	var arm = true
	r := Map(Parallelize(ints(40), 8), func(x int) int {
		if arm && x == 0 {
			panic("one-shot")
		}
		return x
	})
	if _, err := r.CollectE(); err == nil {
		t.Fatal("armed pipeline did not fail")
	}
	arm = false
	got, err := r.CollectE()
	if err != nil || len(got) != 40 {
		t.Fatalf("re-evaluation = (%d elems, %v), want (40, nil)", len(got), err)
	}
}

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
	got, err := collectE(r)
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
	got, err := collectE(r)
	if err != nil {
		t.Fatalf("collectE: %v", err)
	}
	if !reflect.DeepEqual(got, refMap(ints(50), func(x int) int { return x + 1 })) || r.Count() != len(got) {
		t.Error("collectE, Count and the sequential map disagree on a clean pipeline")
	}
}

func TestLegacyCollectStillPanicsOnFault(t *testing.T) {
	// Without the error return, a persistent partition failure re-panics
	// at the join: the contract Count and Aggregate share.
	defer func() {
		if _, ok := recover().(*forkjoin.TaskError); !ok {
			t.Fatal("collect did not re-panic a *forkjoin.TaskError")
		}
	}()
	collect(Map(Parallelize(ints(32), 4), func(x int) int {
		if x == 10 {
			panic("legacy rdd")
		}
		return x
	}))
	t.Fatal("collect returned normally")
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
	if _, err := collectE(r); err == nil {
		t.Fatal("armed pipeline did not fail")
	}
	arm = false
	got, err := collectE(r)
	if err != nil || len(got) != 40 {
		t.Fatalf("re-evaluation = (%d elems, %v), want (40, nil)", len(got), err)
	}
}

package rx

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// toSlice collects src the way the rbench rx probes end their pipelines:
// a Reduce into one accumulator, read with BlockingLast.
func toSlice[T any](src Observable[T]) ([]T, error) {
	return Reduce(src, []T(nil), func(acc []T, x T) []T { return append(acc, x) }).BlockingLast()
}

func TestMapFilterPipeline(t *testing.T) {
	src := Range(0, 10)
	out, err := toSlice(Map(Filter(src, func(x int) bool { return x%2 == 1 }),
		func(x int) int { return x * x }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{1, 9, 25, 49, 81}) {
		t.Errorf("out = %v", out)
	}
}

func TestReduce(t *testing.T) {
	total, err := Reduce(Range(1, 5), 0, func(a, x int) int { return a + x }).BlockingFirst()
	if err != nil || total != 10 {
		t.Errorf("Reduce = (%d, %v)", total, err)
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	failing := Create(func(o Observer[int]) {
		if o.OnNext(1) {
			o.OnError(boom)
		}
	})
	pipeline := Map(Filter(failing, func(int) bool { return true }), func(x int) int { return x })
	if _, err := toSlice(pipeline); !errors.Is(err, boom) {
		t.Errorf("Reduce err = %v", err)
	}
	if _, err := pipeline.BlockingLast(); !errors.Is(err, boom) {
		t.Errorf("BlockingLast err = %v", err)
	}
}

func TestBlockingFirstLast(t *testing.T) {
	if v, err := FromSlice([]int{5, 6, 7}).BlockingFirst(); err != nil || v != 5 {
		t.Errorf("BlockingFirst = (%d, %v)", v, err)
	}
	if v, err := FromSlice([]int{5, 6, 7}).BlockingLast(); err != nil || v != 7 {
		t.Errorf("BlockingLast = (%d, %v)", v, err)
	}
	if _, err := FromSlice[int](nil).BlockingFirst(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty BlockingFirst err = %v", err)
	}
	if _, err := FromSlice[int](nil).BlockingLast(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty BlockingLast err = %v", err)
	}
}

func TestObserveOn(t *testing.T) {
	s := NewScheduler()
	defer s.Close()
	out, err := toSlice(ObserveOn(Range(0, 100), s))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d; ordering violated across scheduler", i, v)
		}
	}
}

func TestSchedulerCloseIdempotent(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.Schedule(func() { ran = true })
	s.Close()
	s.Close()
	if !ran {
		t.Error("scheduled action did not run before close")
	}
}

// Property: rx pipeline Map∘Filter matches the plain-slice computation.
func TestPropertyPipelineMatchesSlices(t *testing.T) {
	f := func(xs []int8) bool {
		pred := func(x int8) bool { return x%2 == 0 }
		fn := func(x int8) int { return int(x) * 10 }
		got, err := toSlice(Map(Filter(FromSlice(xs), pred), fn))
		if err != nil {
			return false
		}
		var want []int
		for _, x := range xs {
			if pred(x) {
				want = append(want, fn(x))
			}
		}
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Schedule racing Close must never panic (the channel-based scheduler could
// send on a closed channel here); late actions are dropped, actions
// enqueued before Close still run in order. Run under -race by `make
// stress`.
func TestSchedulerScheduleCloseRace(t *testing.T) {
	for round := 0; round < 100; round++ {
		s := NewScheduler()
		var ran atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					s.Schedule(func() { ran.Add(1) })
				}
			}()
		}
		close(start)
		s.Close() // races the producers; must not panic
		wg.Wait()
		if ran.Load() > 200 {
			t.Fatalf("ran %d > scheduled 200", ran.Load())
		}
	}
}

// Everything scheduled before Close begins must execute, in order.
func TestSchedulerDrainsInOrderOnClose(t *testing.T) {
	s := NewScheduler()
	const n = 10000
	var order []int
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(func() { order = append(order, i) })
	}
	s.Close()
	if len(order) != n {
		t.Fatalf("ran %d actions, want %d (Close must drain)", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; event-loop ordering violated", i, v)
		}
	}
}

package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInvokeSimple(t *testing.T) {
	p := NewPool(2)
	got := p.Invoke(func(w *Worker) any { return 21 * 2 })
	if got != 42 {
		t.Errorf("Invoke = %v, want 42", got)
	}
}

// fibTask computes fib recursively with fork/join — the classic shape.
func fibTask(n int) Fn {
	return func(w *Worker) any {
		if n < 2 {
			return n
		}
		left := w.Fork(fibTask(n - 1))
		right := fibTask(n - 2)(w)
		return w.Join(left).(int) + right.(int)
	}
}

func TestRecursiveForkJoin(t *testing.T) {
	p := NewPool(4)
	got := p.Invoke(fibTask(15))
	if got != 610 {
		t.Errorf("fib(15) = %v, want 610", got)
	}
}

// A forked task is the one allocation of Fork, and it is 48 bytes: it is
// joined by polling its state while helping, so it carries no completion
// channel, and a panic's *TaskError shares the result field.
func TestForkAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	p := NewPool(2)
	leaf := Fn(func(*Worker) any { return nil })
	const runs = 10000 // a stray allocation elsewhere adds under 1 B a run
	got := p.Invoke(func(w *Worker) any {
		w.Join(w.Fork(leaf))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			w.Join(w.Fork(leaf))
		}
		runtime.ReadMemStats(&after)
		objects := testing.AllocsPerRun(200, func() { w.Join(w.Fork(leaf)) })
		return [2]float64{objects, float64((after.TotalAlloc - before.TotalAlloc) / runs)}
	}).([2]float64)
	t.Logf("Fork+Join: %v objects, %v B", got[0], got[1])
	if got[0] > 1 {
		t.Errorf("Fork+Join allocates %v objects, want <= 1", got[0])
	}
	if got[1] > 48 {
		t.Errorf("Fork+Join allocates %v B, want <= 48", got[1])
	}
}

// submit injects fn as a task from outside the pool, without waiting.
func submit(p *Pool, fn Fn) *Task {
	t := &Task{fn: fn}
	p.Inject(t)
	return t
}

func TestParallelSum(t *testing.T) {
	p := NewPool(4)

	data := make([]int, 100000)
	for i := range data {
		data[i] = i + 1
	}
	var sum func(lo, hi int) Fn
	sum = func(lo, hi int) Fn {
		return func(w *Worker) any {
			if hi-lo <= 1000 {
				s := 0
				for _, v := range data[lo:hi] {
					s += v
				}
				return s
			}
			mid := (lo + hi) / 2
			left := w.Fork(sum(lo, mid))
			right := sum(mid, hi)(w)
			return w.Join(left).(int) + right.(int)
		}
	}
	got := p.Invoke(sum(0, len(data)))
	want := len(data) * (len(data) + 1) / 2
	if got != want {
		t.Errorf("sum = %v, want %d", got, want)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := p.Invoke(func(*Worker) any { return g + i }).(int)
				total.Add(int64(v))
			}
		}(g)
	}
	wg.Wait()
	want := int64(0)
	for g := 0; g < 8; g++ {
		for i := 0; i < 20; i++ {
			want += int64(g + i)
		}
	}
	if total.Load() != want {
		t.Errorf("total = %d, want %d", total.Load(), want)
	}
}

// The default pool, Shared, is as wide as GOMAXPROCS was at process
// start, and Width reports its workers.
func TestDefaultPoolSize(t *testing.T) {
	if got := Shared().Width(); got != sharedWidth {
		t.Errorf("Shared().Width() = %d, want GOMAXPROCS at start, %d", got, sharedWidth)
	}
}

// Property: fork-join parallel sum of arbitrary int8 slices matches the
// sequential sum.
func TestPropertyParallelSumMatchesSequential(t *testing.T) {
	p := NewPool(4)
	f := func(data []int8) bool {
		want := 0
		for _, v := range data {
			want += int(v)
		}
		var sum func(lo, hi int) Fn
		sum = func(lo, hi int) Fn {
			return func(w *Worker) any {
				if hi-lo <= 4 {
					s := 0
					for _, v := range data[lo:hi] {
						s += int(v)
					}
					return s
				}
				mid := (lo + hi) / 2
				l := w.Fork(sum(lo, mid))
				r := sum(mid, hi)(w)
				return w.Join(l).(int) + r.(int)
			}
		}
		got := p.Invoke(sum(0, len(data))).(int)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDequeOperations(t *testing.T) {
	var d taskDeque
	if d.Pop() != nil || d.Steal() != nil {
		t.Error("empty deque should return nil")
	}
	t1, t2, t3 := new(Task), new(Task), new(Task)
	d.Push(t1)
	d.Push(t2)
	d.Push(t3)
	if got := d.Pop(); got != t3 {
		t.Error("pop should be LIFO (owner side)")
	}
	if got := d.Steal(); got != t1 {
		t.Error("steal should be FIFO (thief side)")
	}
	if got := d.Pop(); got != t2 {
		t.Error("remaining element wrong")
	}
}

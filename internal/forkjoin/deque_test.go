package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// taskDeque views the deque through the *Task jobs the tests push, setting
// each task's slot as Fork does.
type taskDeque struct{ deque }

func (d *taskDeque) Push(t *Task) {
	t.slot.job = t
	d.push(&t.slot)
}

func (d *taskDeque) Pop() *Task   { return slotTask(d.pop()) }
func (d *taskDeque) Steal() *Task { return slotTask(d.steal()) }

func slotTask(s *Slot) *Task {
	if s == nil {
		return nil
	}
	return s.job.(*Task)
}

// Every pushed task must be taken exactly once, split between the owner's
// pops and concurrent thieves. Run with -race.
func TestDequeConcurrentOwnership(t *testing.T) {
	var d taskDeque
	const n = 50000
	const thieves = 4

	taken := make([]atomic.Int32, n)
	var total atomic.Int64
	done := make(chan struct{})

	take := func(task *Task) {
		i := task.result.(int)
		if taken[i].Add(1) != 1 {
			t.Errorf("task %d taken twice", i)
		}
		total.Add(1)
	}

	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task := d.Steal(); task != nil {
					take(task)
					continue
				}
				select {
				case <-done:
					// Drain whatever the owner left behind.
					for task := d.Steal(); task != nil; task = d.Steal() {
						take(task)
					}
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		task := new(Task)
		task.result = i
		d.Push(task)
		if i%3 == 0 {
			if task := d.Pop(); task != nil {
				take(task)
			}
		}
	}
	for task := d.Pop(); task != nil; task = d.Pop() {
		take(task)
	}
	close(done)
	wg.Wait()
	// The owner can race one last steal; sweep any leftovers.
	for task := d.Steal(); task != nil; task = d.Steal() {
		take(task)
	}

	if total.Load() != n {
		t.Fatalf("took %d tasks, want %d", total.Load(), n)
	}
	for i := range taken {
		if taken[i].Load() != 1 {
			t.Fatalf("task %d taken %d times", i, taken[i].Load())
		}
	}
}

func TestDequeGrowthPreservesOrder(t *testing.T) {
	var d taskDeque
	const n = initialDequeCap * 8 // force several growths
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = new(Task)
		d.Push(tasks[i])
	}
	// Owner pops LIFO.
	for i := n - 1; i >= 0; i-- {
		if got := d.Pop(); got != tasks[i] {
			t.Fatalf("pop %d: wrong task", i)
		}
	}
	if d.Pop() != nil {
		t.Fatal("deque should be empty")
	}
}

func TestDequeStealFIFOAfterGrowth(t *testing.T) {
	var d taskDeque
	const n = initialDequeCap * 4
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = new(Task)
		d.Push(tasks[i])
	}
	for i := 0; i < n; i++ {
		if got := d.Steal(); got != tasks[i] {
			t.Fatalf("steal %d: wrong task", i)
		}
	}
	if d.Steal() != nil {
		t.Fatal("deque should be empty")
	}
}

// The old slice-shift steal (`tasks = tasks[1:]`) kept every stolen task
// reachable through the backing array. The ring deque must not pin tasks
// the owner has popped: all cells it vacates are cleared, so the tasks
// become collectable immediately.
func TestDequePopDoesNotPinTasks(t *testing.T) {
	var d taskDeque
	const n = 100
	collected := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		// The finalizer watches the task's payload: a task's slot points
		// back at the task, and the GC never runs a finalizer on an object
		// that reaches itself.
		payload := &struct{ pad [1024]byte }{}
		runtime.SetFinalizer(payload, func(*struct{ pad [1024]byte }) { collected <- struct{}{} })
		task := new(Task)
		task.result = payload
		d.Push(task)
	}
	for d.Pop() != nil {
	}
	// All ring cells the owner vacated must be nil — no lingering refs.
	a := d.arr.Load()
	if a == nil {
		t.Fatal("ring not allocated")
	}
	for i := range a.cells {
		if a.cells[i].Load() != nil {
			t.Fatalf("cell %d still pins a popped task", i)
		}
	}
	// And the GC can actually reclaim them.
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-deadline:
			t.Fatalf("only %d/%d popped tasks were collected; deque pins the rest", got, n)
		}
	}
}

// Interleaved push/pop around the empty boundary — the trickiest Chase–Lev
// region (bottom == top) — must stay consistent.
func TestDequeEmptyBoundary(t *testing.T) {
	var d taskDeque
	for i := 0; i < 1000; i++ {
		if d.Pop() != nil || d.Steal() != nil {
			t.Fatal("empty deque returned a task")
		}
		task := new(Task)
		d.Push(task)
		if got := d.Pop(); got != task {
			t.Fatalf("iteration %d: pop returned %v", i, got)
		}
	}
}

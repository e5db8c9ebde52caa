// Package forkjoin implements a fork–join task pool with per-worker
// work-stealing deques, in the style of the Java Fork/Join framework (Lea,
// 2000) used by the fj-kmeans benchmark (Table 1: "task-parallel,
// concurrent data structures"). Workers push forked tasks onto their own
// lock-free Chase–Lev deque (LIFO for locality) and steal from the top of
// other workers' deques (FIFO) with a single CAS, and joining workers help
// execute pending tasks instead of blocking. Work from outside the pool —
// submitted tasks, parallel-for helpers and futures bodies — goes on the
// pool's one lock-free inject queue (sched.go). The scheduler's own
// accounting is a metrics.IncX call on the goroutine's hashed shard at
// each counted event, never inside a critical section.
package forkjoin

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"renaissance/internal/metrics"
	"renaissance/internal/mpsc"
)

// A Fn is the body of a fork-join task. It receives the worker executing it
// so that it can fork and join subtasks; the worker is nil when the task
// runs off the pool (see Pool.Help), and Fork and Join still work there.
type Fn func(w *Worker) any

// A Job is an element of a pool's inject queue: a submitted *Task, a
// parallel-for job pushed once per helper, or a futures promise record.
// Run executes it on worker w, nil when it runs off the pool.
type Job interface{ Run(w *Worker) }

// Task is a forked computation whose result can be joined.
type Task struct {
	fn     Fn
	done   atomic.Bool
	result any
	// err holds the *TaskError of a panicking body, written before done is
	// published. Join and Invoke re-panic it (fork/join exception
	// propagation).
	err *TaskError
	// doneCh is closed on completion for Invoke, which parks on it. Only
	// Submit makes it: forked tasks are joined by polling done while
	// helping.
	doneCh chan struct{}
}

// Run executes the task's body under a recover: a panicking body is
// converted to a *TaskError on the task and completes it, so a misbehaving
// task can never take down a pool worker or leave a joiner parked forever.
// Its acquisition is counted here, once per task, so the count does not
// depend on which queue or thief it came from.
func (t *Task) Run(w *Worker) {
	metrics.IncAtomic()
	defer func() {
		if p := recover(); p != nil {
			if te, ok := p.(*TaskError); ok {
				t.err = te // a nested join's re-panic keeps its identity
			} else {
				t.err = &TaskError{Index: -1, Value: p, Stack: debug.Stack()}
			}
			t.complete(nil)
		}
	}()
	t.complete(t.fn(w))
}

func (t *Task) complete(v any) {
	t.result = v
	metrics.IncAtomic()
	t.done.Store(true)
	if t.doneCh != nil {
		close(t.doneCh)
	}
	metrics.IncNotify()
}

// Pool is a fork-join pool with a fixed number of workers.
type Pool struct {
	sched   Sched[Job, Task]
	workers []*Worker
	done    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// Worker is one pool worker; tasks receive their executing worker to fork
// and join subtasks.
type Worker struct {
	pool *Pool
	dq   Deque[Task]
	seq  uint64 // steal-start counter, distinct per worker
}

// jobNodes is the inject queues' node pool, shared by every Pool.
var jobNodes = mpsc.NewPool[Job]()

// NewPool creates a pool with n workers (0 means GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: make([]*Worker, n), done: make(chan struct{})}
	deques := make([]*Deque[Task], n)
	for i := range p.workers {
		w := &Worker{pool: p, seq: uint64(i) << 32}
		p.workers[i], deques[i] = w, &w.dq
	}
	p.sched.Init(deques, jobNodes)
	for _, w := range p.workers {
		p.wg.Add(1)
		go w.run()
	}
	return p
}

// Close shuts the pool down. Outstanding tasks are not waited for; callers
// should join their tasks first.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.done)
	p.wg.Wait()
}

// Inject queues j on the pool from outside it.
func (p *Pool) Inject(j Job) { p.sched.Push(j) }

// Submit schedules a top-level task from outside the pool. On a closed
// pool the task never runs.
func (p *Pool) Submit(fn Fn) *Task {
	metrics.IncObject()
	t := &Task{fn: fn, doneCh: make(chan struct{})}
	p.Inject(t)
	return t
}

// Invoke submits fn and blocks until it completes, returning its result. A
// panicking fn is re-panicked here as a *TaskError (the join point), and
// so is a task that can never run because the pool is closed (its cause
// is ErrPoolClosed).
func (p *Pool) Invoke(fn Fn) any {
	t := p.Submit(fn)
	metrics.IncPark()
	select {
	case <-t.doneCh:
	case <-p.done:
		if !t.done.Load() {
			panic(&TaskError{Index: -1, Value: ErrPoolClosed})
		}
	}
	if t.err != nil {
		panic(t.err)
	}
	return t.result
}

// Help runs one injected job on the calling goroutine, off the pool, and
// reports whether there was one: a *Task's body gets a nil *Worker, so
// its forks run inline. A latch held by a worker, or a push still
// linking, is waited out, not taken for an empty queue.
func (p *Pool) Help() bool {
	for {
		if j, n := p.sched.Poll(1, nil); n > 0 {
			j.Run(nil)
			return true
		}
		if p.sched.Empty() {
			return false
		}
		runtime.Gosched()
	}
}

func (w *Worker) run() {
	p := w.pool
	defer p.wg.Done()
	for {
		if j := w.find(); j != nil {
			j.Run(w)
			continue
		}
		select {
		case <-p.done:
			return
		default:
		}
		p.sched.Park(p.done)
	}
}

// find looks for work: own deque first, then the inject queue, then
// stealing from the other workers.
func (w *Worker) find() Job {
	if t := w.dq.Pop(); t != nil {
		return t
	}
	if j, n := w.pool.sched.Poll(1, nil); n > 0 {
		return j
	}
	w.seq++
	if t := w.pool.sched.Steal(&w.dq, w.seq); t != nil {
		return t
	}
	return nil
}

// Fork schedules fn as a subtask on the worker's own deque. Off the pool
// (w == nil) it runs fn inline, so the Join that follows finds it done.
func (w *Worker) Fork(fn Fn) *Task {
	metrics.IncObject()
	t := &Task{fn: fn}
	metrics.IncAtomic()
	if w == nil {
		t.Run(nil)
		return t
	}
	w.dq.Push(t)
	w.pool.sched.Signal()
	return t
}

// Join waits for the task to finish, helping execute pending tasks while
// it waits (the fork-join "helping" discipline that avoids blocking worker
// threads). A task whose body panicked re-panics its *TaskError here, at
// the join point — the fork/join exception-propagation contract.
func (w *Worker) Join(t *Task) any {
	for {
		metrics.IncAtomic()
		if t.done.Load() {
			if t.err != nil {
				panic(t.err)
			}
			return t.result
		}
		if w != nil {
			if j := w.find(); j != nil {
				j.Run(w)
				continue
			}
		}
		runtime.Gosched()
	}
}

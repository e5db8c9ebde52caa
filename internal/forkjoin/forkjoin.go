// Package forkjoin implements a fork–join task pool with per-worker
// work-stealing deques, in the style of the Java Fork/Join framework (Lea,
// 2000) used by the fj-kmeans benchmark (Table 1: "task-parallel,
// concurrent data structures"). Workers push forked tasks onto their own
// lock-free Chase–Lev deque (LIFO for locality) and steal from the top of
// other workers' deques (FIFO) with a single CAS, and joining workers help
// execute pending tasks instead of blocking. Each worker holds a
// shard-pinned metrics.Local handle, so the scheduler's own accounting
// never contends across workers and never executes inside a critical
// section.
package forkjoin

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"renaissance/internal/metrics"
)

// A Fn is the body of a fork-join task. It receives the worker executing it
// so that it can fork and join subtasks.
type Fn func(w *Worker) any

// Task is a forked computation whose result can be joined.
type Task struct {
	fn     Fn
	done   atomic.Bool
	result any
	// err holds the *TaskError of a panicking body, written before done is
	// published. Join re-panics it (fork/join exception propagation); Err
	// exposes it to callers that prefer inspecting.
	err    *TaskError
	doneCh chan struct{}
	// quiet suppresses completion metric bumps: For helper tasks are
	// never joined and may outlive the For that submitted them, so their
	// completion must not land counts in a later measurement window.
	quiet bool
}

func newTask(fn Fn) *Task {
	return &Task{fn: fn, doneCh: make(chan struct{})}
}

func (t *Task) complete(v any, loc metrics.Local) {
	t.result = v
	if !t.quiet {
		loc.IncAtomic()
	}
	t.done.Store(true)
	close(t.doneCh)
	if !t.quiet {
		loc.IncNotify()
	}
}

// Err returns the task's failure (a *TaskError wrapping a recovered body
// panic), or nil. It must only be called after the task is known to be
// done (its Join or Invoke returned, or re-panicked).
func (t *Task) Err() error {
	if t.err == nil {
		return nil
	}
	return t.err
}

// Pool is a fork-join pool with a fixed number of workers.
type Pool struct {
	workers []*Worker
	submit  chan *Task
	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// Worker is one pool worker; tasks receive their executing worker to fork
// and join subtasks.
type Worker struct {
	pool  *Pool
	dq    Deque[Task]
	rng   *rand.Rand
	local metrics.Local
}

// NewPool creates a pool with n workers (0 means GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		submit: make(chan *Task, 4096),
		wake:   make(chan struct{}, n),
		done:   make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		w := &Worker{
			pool:  p,
			rng:   rand.New(rand.NewSource(int64(i)*7919 + 1)),
			local: metrics.AcquireAt(i),
		}
		p.workers = append(p.workers, w)
	}
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

func (p *Pool) wakeOne() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Submit schedules a top-level task from outside the pool.
func (p *Pool) Submit(fn Fn) *Task {
	metrics.IncObject()
	t := newTask(fn)
	select {
	case p.submit <- t:
	case <-p.done:
		return t // pool closed; the task never runs
	}
	p.wakeOne()
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

func (w *Worker) run() {
	defer w.pool.wg.Done()
	for {
		if t := w.findTask(); t != nil {
			w.exec(t)
			continue
		}
		select {
		case t := <-w.pool.submit:
			w.exec(t)
		case <-w.pool.wake:
		case <-w.pool.done:
			return
		}
	}
}

// exec runs one task under a recover: a panicking body is converted to a
// *TaskError on the task and completes it, so a misbehaving task can never
// take down a pool worker or leave a joiner parked forever.
func (w *Worker) exec(t *Task) {
	defer func() {
		if p := recover(); p != nil {
			if te, ok := p.(*TaskError); ok {
				t.err = te // a nested join's re-panic keeps its identity
			} else {
				t.err = &TaskError{Index: -1, Value: p, Stack: debug.Stack()}
			}
			t.complete(nil, w.local)
		}
	}()
	v := t.fn(w)
	t.complete(v, w.local)
}

// findTask looks for work: own deque first, then the submission queue, then
// stealing from a random victim (scanning all on failure). Acquisitions
// are counted on success for non-quiet tasks only: failed scan attempts
// (and pickups of quiet For helpers) depend on wakeup timing, and
// counting them would make per-run metric totals scheduling-dependent.
func (w *Worker) findTask() *Task {
	if t := w.dq.Pop(); t != nil {
		if !t.quiet {
			w.local.IncAtomic()
		}
		return t
	}
	select {
	case t := <-w.pool.submit:
		if !t.quiet {
			w.local.IncAtomic()
		}
		return t
	default:
	}
	n := len(w.pool.workers)
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		victim := w.pool.workers[(start+i)%n]
		if victim == w {
			continue
		}
		if t := victim.dq.Steal(); t != nil {
			if !t.quiet {
				w.local.IncAtomic()
			}
			return t
		}
	}
	return nil
}

// Fork schedules fn as a subtask on the worker's own deque.
func (w *Worker) Fork(fn Fn) *Task {
	w.local.IncObject()
	t := newTask(fn)
	w.local.IncAtomic()
	w.dq.Push(t)
	w.pool.wakeOne()
	return t
}

// Join waits for the task to finish, helping execute pending tasks while
// it waits (the fork-join "helping" discipline that avoids blocking worker
// threads). A task whose body panicked re-panics its *TaskError here, at
// the join point — the fork/join exception-propagation contract; Task.Err
// still holds it afterwards.
func (w *Worker) Join(t *Task) any {
	for {
		w.local.IncAtomic()
		if t.done.Load() {
			if t.err != nil {
				panic(t.err)
			}
			return t.result
		}
		if other := w.findTask(); other != nil {
			w.exec(other)
		} else {
			runtime.Gosched()
		}
	}
}

// Package forkjoin implements a fork–join task pool with per-worker
// work-stealing deques, in the style of the Java Fork/Join framework (Lea,
// 2000) used by the fj-kmeans benchmark (Table 1: "task-parallel,
// concurrent data structures"). Workers push forked tasks onto their own
// lock-free Chase–Lev deque (LIFO for locality) and steal from the top of
// other workers' deques (FIFO) with a single CAS, and joining workers help
// execute pending tasks instead of blocking. The scheduler's own
// accounting is a metrics.IncX call on the goroutine's hashed shard at
// each counted event, never inside a critical section.
package forkjoin

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"renaissance/internal/chaos"
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
	// published. Join and Invoke re-panic it (fork/join exception
	// propagation).
	err *TaskError
	// doneCh is closed on completion for Invoke, which parks on it. Only
	// Submit makes it: forked tasks are joined by polling done while
	// helping, and For helpers are never joined.
	doneCh chan struct{}
	// quiet suppresses completion metric bumps: For helper tasks are
	// never joined and may outlive the For that submitted them, so their
	// completion must not land counts in a later measurement window.
	quiet bool
}

func (t *Task) complete(v any) {
	t.result = v
	if !t.quiet {
		metrics.IncAtomic()
	}
	t.done.Store(true)
	if t.doneCh != nil {
		close(t.doneCh)
	}
	if !t.quiet {
		metrics.IncNotify()
	}
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
	pool *Pool
	dq   Deque[Task]
	seq  uint64 // steal-start counter, distinct per worker
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
		p.workers = append(p.workers, &Worker{pool: p, seq: uint64(i) << 32})
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
	t := &Task{fn: fn, doneCh: make(chan struct{})}
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
			t.complete(nil)
		}
	}()
	v := t.fn(w)
	t.complete(v)
}

// findTask looks for work: own deque first, then the submission queue, then
// stealing from a random victim (scanning all on failure). Acquisitions
// are counted on success for non-quiet tasks only: failed scan attempts
// (and pickups of quiet For helpers) depend on wakeup timing, and
// counting them would make per-run metric totals scheduling-dependent.
func (w *Worker) findTask() *Task {
	if t := w.dq.Pop(); t != nil {
		if !t.quiet {
			metrics.IncAtomic()
		}
		return t
	}
	select {
	case t := <-w.pool.submit:
		if !t.quiet {
			metrics.IncAtomic()
		}
		return t
	default:
	}
	n := len(w.pool.workers)
	w.seq++
	start := int(chaos.Mix64(w.seq) % uint64(n))
	for i := 0; i < n; i++ {
		victim := w.pool.workers[(start+i)%n]
		if victim == w {
			continue
		}
		if t := victim.dq.Steal(); t != nil {
			if !t.quiet {
				metrics.IncAtomic()
			}
			return t
		}
	}
	return nil
}

// Fork schedules fn as a subtask on the worker's own deque.
func (w *Worker) Fork(fn Fn) *Task {
	metrics.IncObject()
	t := &Task{fn: fn}
	metrics.IncAtomic()
	w.dq.Push(t)
	w.pool.wakeOne()
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
		if other := w.findTask(); other != nil {
			w.exec(other)
		} else {
			runtime.Gosched()
		}
	}
}

// Package forkjoin implements a fork–join task pool with per-worker
// work-stealing deques, in the style of the Java Fork/Join framework (Lea,
// 2000) used by the fj-kmeans benchmark (Table 1: "task-parallel,
// concurrent data structures"). Workers push forked tasks onto their own
// lock-free Chase–Lev deque (LIFO for locality) and steal from the top of
// other workers' deques (FIFO) with a single CAS, and joining workers help
// execute pending tasks instead of blocking. Work from outside the pool —
// submitted tasks, parallel-for helpers, futures bodies and actors with
// mail — goes on the pool's one lock-free inject queue, an mpsc.Queue
// drained under a single-consumer latch; and a worker that finds nothing
// parks with the idle-count-then-recheck protocol, so an idle pool burns
// no CPU and no wakeup is lost.
//
// The pool runs Jobs, not just tasks: a deque holds Slots, and every job
// a worker can push embeds one — a forked *Task, and an actors.Ref, whose
// message batch is one job. Worker.run is the only worker loop in the
// repository, and Shared is the only pool outside tests: every actor
// System runs on it, beside fork–join tasks, parallel-for helpers and
// futures bodies. No code closes a pool; an idle one parks. The
// scheduler's own accounting is a metrics.IncX call on the goroutine's
// hashed shard at each counted event, never inside a critical section:
// a task's acquisition and completion, never a steal or a park.
package forkjoin

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
	"renaissance/internal/mpsc"
)

// A Fn is the body of a fork-join task. It receives the worker executing it
// so that it can fork and join subtasks; the worker is nil when the task
// runs off the pool (see Pool.Help), and Fork and Join still work there.
type Fn func(w *Worker) any

// A Job is what a pool worker runs: a submitted or forked *Task, a
// parallel-for job pushed once per helper, a futures promise record, or an
// actor's message batch. Run executes it on worker w, nil when it runs off
// the pool (Pool.Help). A job that a worker pushes onto its own deque
// embeds a Slot; the inject queue takes any Job.
type Job interface{ Run(w *Worker) }

// Task is a forked computation whose result can be joined. It is one
// 48-byte object: Join polls state while helping, so a task carries no
// completion channel (only Invoke's wrapper does).
type Task struct {
	slot  Slot
	fn    Fn
	state atomic.Uint32 // taskPending, then taskDone or taskFailed
	// result is the body's value, or, once state is taskFailed, the
	// *TaskError of its panic, which Join and Invoke re-panic (fork/join
	// exception propagation). It is written before state is published.
	result any
}

// Task states: a task is published done or failed exactly once.
const (
	taskPending uint32 = iota
	taskDone
	taskFailed
)

// Run executes the task's body under a recover: a panicking body is
// converted to a *TaskError on the task and completes it, so a misbehaving
// task can never take down a pool worker or leave a joiner parked forever.
// Its acquisition is counted here, once per task, so the count does not
// depend on which queue or thief it came from.
func (t *Task) Run(w *Worker) {
	metrics.IncAtomic()
	defer func() {
		if p := recover(); p != nil {
			te, ok := p.(*TaskError) // a nested join's re-panic keeps its identity
			if !ok {
				te = &TaskError{Index: -1, Value: p, Stack: debug.Stack()}
			}
			t.complete(te, taskFailed)
		}
	}()
	t.complete(t.fn(w), taskDone)
}

func (t *Task) complete(v any, state uint32) {
	t.result = v
	metrics.IncAtomic()
	t.state.Store(state)
	metrics.IncNotify()
}

// value returns a completed task's result, re-panicking its *TaskError
// if the body panicked.
func (t *Task) value() any {
	if t.state.Load() == taskFailed {
		panic(t.result.(*TaskError))
	}
	return t.result
}

// invocation is the job Invoke injects: a task and the channel its caller
// parks on, closed once the task completes.
type invocation struct {
	Task
	doneCh chan struct{}
}

func (v *invocation) Run(w *Worker) {
	v.Task.Run(w)
	close(v.doneCh)
}

// Pool is a fork-join pool with a fixed number of workers: their deques,
// the inject queue for work that arrives off the workers, and the park
// protocol.
type Pool struct {
	workers []*Worker
	inject  mpsc.Queue[Job]
	latch   atomic.Bool // single-consumer latch for draining inject
	idle    atomic.Int64
	// wake holds up to one token per worker: more could only wake a
	// worker that is not parked.
	wake chan struct{}
}

// Worker is one pool worker; jobs receive their executing worker to fork
// and join subtasks, or to push other jobs onto its deque.
type Worker struct {
	pool  *Pool
	dq    deque
	seq   uint32 // steal-start counter
	index int32
}

// jobNodes is the inject queues' node pool, shared by every Pool.
var jobNodes = mpsc.NewPool[Job]()

// NewPool creates a pool with n >= 1 workers. Its workers run for the
// life of the process, parked while there is no work.
func NewPool(n int) *Pool {
	p := &Pool{workers: make([]*Worker, n), wake: make(chan struct{}, n)}
	p.inject.Init(jobNodes)
	for i := range p.workers {
		p.workers[i] = &Worker{pool: p, index: int32(i)}
	}
	for _, w := range p.workers {
		go w.run()
	}
	return p
}

// Width returns the pool's number of workers.
func (p *Pool) Width() int { return len(p.workers) }

// Index returns the worker's position in its pool, in [0, n) for a pool
// of n workers.
func (w *Worker) Index() int { return int(w.index) }

// Push puts s's job on the worker's own deque, where the worker finds it
// first and its peers can steal it, and wakes a parked peer for it.
func (w *Worker) Push(s *Slot) {
	w.dq.push(s)
	w.pool.signal()
}

// Inject queues j on the pool's inject queue, behind everything already
// there, and wakes a parked worker for it. It is the way in from outside
// the pool, and the way to the back of the line from inside it.
func (p *Pool) Inject(j Job) {
	p.inject.Push(j)
	p.signal()
}

// Invoke runs fn on the pool and blocks until it completes, returning its
// result. A panicking fn is re-panicked here as a *TaskError (the join
// point).
func (p *Pool) Invoke(fn Fn) any {
	metrics.IncObject()
	v := &invocation{Task: Task{fn: fn}, doneCh: make(chan struct{})}
	p.Inject(v)
	metrics.IncPark()
	<-v.doneCh
	return v.value()
}

// Help runs one injected job on the calling goroutine, off the pool, and
// reports whether there was one: a *Task's body gets a nil *Worker, so
// its forks run inline. A latch held by a worker, or a push still
// linking, is waited out, not taken for an empty queue.
func (p *Pool) Help() bool {
	for {
		if j := p.poll(); j != nil {
			j.Run(nil)
			return true
		}
		if p.inject.Empty() {
			return false
		}
		runtime.Gosched()
	}
}

func (w *Worker) run() {
	for {
		if j := w.find(); j != nil {
			j.Run(w)
			continue
		}
		w.pool.park()
	}
}

// find looks for work: own deque first, then the inject queue, then
// stealing from the other workers.
func (w *Worker) find() Job {
	if s := w.dq.pop(); s != nil {
		return s.job
	}
	if j := w.pool.poll(); j != nil {
		return j
	}
	w.seq++
	if s := w.pool.steal(w); s != nil {
		return s.job
	}
	return nil
}

// poll takes the oldest job off the inject queue. nil means the queue was
// empty, a push was still linking, or another consumer held the latch;
// callers that must tell those apart check inject.Empty.
func (p *Pool) poll() Job {
	if p.inject.Empty() || !p.latch.CompareAndSwap(false, true) {
		return nil
	}
	j, _ := p.inject.Pop() // empty, or a producer is mid-link: don't spin latched
	p.latch.Store(false)
	return j
}

// retract pops the inject queue's oldest jobs while they are j, so a
// producer can take back what no worker picked up in time. It gives up
// when another consumer holds the latch.
func (p *Pool) retract(j Job) {
	if p.inject.Empty() || !p.latch.CompareAndSwap(false, true) {
		return
	}
	for {
		if head, ok := p.inject.Peek(); !ok || head != j {
			break
		}
		if _, ok := p.inject.Pop(); !ok {
			break
		}
	}
	p.latch.Store(false)
}

// steal takes the oldest slot of another worker's deque, scanning from a
// start that the thief's index and steal counter pick (distinct per worker
// and call).
func (p *Pool) steal(thief *Worker) *Slot {
	n := len(p.workers)
	start := int(chaos.Mix64(uint64(thief.index)<<32|uint64(thief.seq)) % uint64(n))
	for i := range n {
		if v := p.workers[(start+i)%n]; v != thief {
			if s := v.dq.steal(); s != nil {
				return s
			}
		}
	}
	return nil
}

// park blocks the calling worker until a signal.
// It first advertises idleness, then re-checks every queue: a producer
// either sees the idle count and leaves a wake token, or made its work
// visible before the count went up and the re-check finds it.
func (p *Pool) park() {
	p.idle.Add(1)
	defer p.idle.Add(-1)
	if p.anyWork() {
		return
	}
	<-p.wake
}

func (p *Pool) anyWork() bool {
	if !p.inject.Empty() {
		return true
	}
	for _, w := range p.workers {
		if w.dq.size() > 0 {
			return true
		}
	}
	return false
}

// signal wakes one parked worker, if any. Producers call it after making
// their work visible, which pairs with park's re-check.
func (p *Pool) signal() {
	if p.idle.Load() > 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
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
	t.slot.job = t
	w.Push(&t.slot)
	return t
}

// Join waits for the task to finish, helping execute pending tasks while
// it waits (the fork-join "helping" discipline that avoids blocking worker
// threads). A task whose body panicked re-panics its *TaskError here, at
// the join point — the fork/join exception-propagation contract.
func (w *Worker) Join(t *Task) any {
	for {
		metrics.IncAtomic()
		if t.state.Load() != taskPending {
			return t.value()
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

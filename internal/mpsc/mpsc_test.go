package mpsc

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFOSingleProducer(t *testing.T) {
	q := New(NewPool[int]())
	const n = 1000
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained queue returned a value")
	}
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

func TestQueueConcurrentProducersPerSenderOrder(t *testing.T) {
	type item struct{ producer, seq int }
	q := New(NewPool[item]())
	const producers = 8
	const perProducer = 5000

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(item{p, i})
			}
		}(p)
	}

	lastSeq := make([]int, producers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	for got < producers*perProducer {
		v, ok := q.Pop()
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("drained only %d/%d items", got, producers*perProducer)
			}
			runtime.Gosched()
			continue
		}
		if v.seq != lastSeq[v.producer]+1 {
			t.Fatalf("producer %d: seq %d after %d (per-sender FIFO violated)",
				v.producer, v.seq, lastSeq[v.producer])
		}
		lastSeq[v.producer] = v.seq
		got++
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatal("queue not empty after full drain")
	}
}

// A flooded-then-drained queue must release its buffers: a drained queue
// holds no node at all, the nodes that went back to the pool pin no value,
// and steady-state push/pop traffic recycles pooled nodes instead of
// allocating. This is the regression test for the old mutex mailbox's
// `queue = queue[1:]` leak, which retained every drained message until
// the next append reallocation.
func TestQueueFloodDrainRecyclesNodes(t *testing.T) {
	q := New(NewPool[*[]byte]())
	const flood = 10000
	for i := 0; i < flood; i++ {
		buf := make([]byte, 1024)
		q.Push(&buf)
	}
	for {
		if _, ok := q.Pop(); !ok {
			break
		}
	}

	// Structurally drained: neither end points at a node.
	if h, tl := q.head.Load(), q.tail.Load(); h != nil || tl != nil {
		t.Fatalf("drained queue still holds nodes: head %p, tail %p", h, tl)
	}
	// A node back in the pool must not pin the message it carried.
	if n := q.pool.get(); n.val != nil || n.next.Load() != nil {
		t.Fatal("a pooled node retains a drained value or link")
	}

	// Steady-state traffic is allocation-free modulo the pool: nodes come
	// back from the drain above. (sync.Pool may miss occasionally under GC;
	// allow a small average.)
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(nil)
		q.Pop()
	})
	if avg > 0.1 {
		t.Errorf("steady-state push/pop allocates %.2f objects/op; nodes not recycled", avg)
	}
}

func TestQueueEmptyTransitions(t *testing.T) {
	q := New(NewPool[int]())
	for i := 0; i < 100; i++ {
		if !q.Empty() {
			t.Fatalf("iteration %d: fresh/drained queue not empty", i)
		}
		q.Push(i)
		if q.Empty() {
			t.Fatalf("iteration %d: queue with one item reports empty", i)
		}
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("iteration %d: pop got (%d, %v)", i, v, ok)
		}
	}
}

// The queue passes through empty on almost every pop: four producers push
// with pauses while the consumer pops until the queue is empty after each
// value, so most pops take the last node and race a producer's swap.
// Every value arrives once, in its producer's order.
func TestQueueEmptyBoundaryConcurrent(t *testing.T) {
	type item struct{ producer, seq int }
	q := New(NewPool[item]())
	const producers = 4
	const perProducer = 20000

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(item{p, i})
				if i%4 == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}

	var seen [producers][perProducer]bool
	lastSeq := [producers]int{-1, -1, -1, -1}
	got := 0
	take := func(v item) {
		if seen[v.producer][v.seq] {
			t.Fatalf("producer %d seq %d delivered twice", v.producer, v.seq)
		}
		seen[v.producer][v.seq] = true
		if v.seq != lastSeq[v.producer]+1 {
			t.Fatalf("producer %d: seq %d after %d (per-sender FIFO violated)",
				v.producer, v.seq, lastSeq[v.producer])
		}
		lastSeq[v.producer] = v.seq
		got++
	}
	deadline := time.Now().Add(30 * time.Second)
	for got < producers*perProducer {
		if v, ok := q.Pop(); ok {
			take(v)
			continue
		}
		// Empty (the next push finds head nil) or a push in flight.
		if time.Now().After(deadline) {
			t.Fatalf("drained only %d/%d items", got, producers*perProducer)
		}
		runtime.Gosched()
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatal("queue not empty after full drain")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained queue returned a value")
	}
}

// inFlight is a push stopped between its swap and its link: the two halves
// of Push, run apart so a test can look at the queue in between.
type inFlight[T any] struct {
	n, prev *node[T]
}

func beginPush[T any](q *Queue[T], v T) inFlight[T] {
	n := q.pool.get()
	n.val = v
	return inFlight[T]{n, q.head.Swap(n)}
}

func (f inFlight[T]) link(q *Queue[T]) {
	if f.prev == nil {
		q.tail.Store(f.n)
	} else {
		f.prev.next.Store(f.n)
	}
}

// Pop reports "not ready" while Empty reports "not empty" in both states
// where a value is in the queue but cannot be taken yet: the first push
// into an empty queue has swapped head but not stored tail, and a push
// behind the last node has swapped head but not linked, so the consumer's
// CAS that would detach that node loses and tail is restored.
func TestQueuePopNotReadyStates(t *testing.T) {
	q := New(NewPool[int]())

	first := beginPush(q, 1)
	if q.head.Load() == nil || q.tail.Load() != nil {
		t.Fatal("first push in flight: want head set and tail nil")
	}
	if _, ok := q.Pop(); ok || q.Empty() {
		t.Fatalf("first push in flight: Pop ok %v, Empty %v; want false, false", ok, q.Empty())
	}
	first.link(q)
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("after the link: Pop = (%d, %v), want (1, true)", v, ok)
	}
	if !q.Empty() || q.tail.Load() != nil {
		t.Fatal("the last node was taken but the queue is not empty")
	}

	q.Push(2)
	last := q.tail.Load()
	behind := beginPush(q, 3)
	if behind.prev != last {
		t.Fatal("the in-flight push did not swap in behind the last node")
	}
	if _, ok := q.Pop(); ok || q.Empty() {
		t.Fatalf("lost CAS: Pop ok %v, Empty %v; want false, false", ok, q.Empty())
	}
	if q.tail.Load() != last || q.head.Load() != behind.n {
		t.Fatal("lost CAS: tail not restored to the last node, or head moved")
	}
	behind.link(q)
	for _, want := range []int{2, 3} {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("after the link: Pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

// Peek sees what the next Pop takes, takes nothing itself, and reports
// nothing while the first push is still linking.
func TestQueuePeek(t *testing.T) {
	q := New(NewPool[int]())
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on an empty queue reported a value")
	}
	first := beginPush(q, 1)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek reported a value whose push is still linking")
	}
	first.link(q)
	q.Push(2)
	for _, want := range []int{1, 2} {
		if v, ok := q.Peek(); !ok || v != want {
			t.Fatalf("Peek = (%d, %v), want (%d, true)", v, ok, want)
		}
		if v, ok := q.Peek(); !ok || v != want {
			t.Fatalf("second Peek = (%d, %v), want (%d, true)", v, ok, want)
		}
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := q.Peek(); ok || !q.Empty() {
		t.Fatal("Peek on a drained queue reported a value")
	}
}

// FuzzQueueOps runs a byte string as a single-consumer schedule against a
// slice model. Each byte is one operation, chosen by its value mod 5:
// push, pop, empty, begin a push (swap without link), or link the
// in-flight push the byte's upper bits pick. A value is ready for Pop when
// it is linked and so is its successor, if any; Empty holds only when
// nothing at all was swapped in. At the end every in-flight push is
// linked, the queue is drained in order, and it must hold no node.
func FuzzQueueOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		type entry struct {
			val    int
			linked bool
		}
		q := New(NewPool[int]())
		var model []entry
		var pending []inFlight[int]
		link := func(p inFlight[int]) {
			p.link(q)
			for i := range model {
				if model[i].val == p.n.val {
					model[i].linked = true
				}
			}
		}
		next := 0
		for i, op := range ops {
			switch op % 5 {
			case 0:
				q.Push(next)
				model = append(model, entry{next, true})
				next++
			case 1:
				v, ok := q.Pop()
				ready := len(model) > 0 && model[0].linked && (len(model) == 1 || model[1].linked)
				if ok != ready {
					t.Fatalf("op %d: Pop ok = %v, model says %v", i, ok, ready)
				}
				if ok {
					if v != model[0].val {
						t.Fatalf("op %d: Pop = %d, want %d", i, v, model[0].val)
					}
					model = model[1:]
				}
			case 2:
				if got, want := q.Empty(), len(model) == 0; got != want {
					t.Fatalf("op %d: Empty = %v, want %v", i, got, want)
				}
			case 3:
				pending = append(pending, beginPush(q, next))
				model = append(model, entry{next, false})
				next++
			case 4:
				if len(pending) == 0 {
					continue
				}
				k := int(op/5) % len(pending)
				link(pending[k])
				pending = append(pending[:k], pending[k+1:]...)
			}
		}
		for _, p := range pending {
			link(p)
		}
		for _, e := range model {
			if v, ok := q.Pop(); !ok || v != e.val {
				t.Fatalf("final drain: Pop = (%d, %v), want (%d, true)", v, ok, e.val)
			}
		}
		if !q.Empty() || q.head.Load() != nil || q.tail.Load() != nil {
			t.Fatal("drained queue still holds a node")
		}
	})
}

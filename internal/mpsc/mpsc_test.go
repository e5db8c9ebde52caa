package mpsc

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func drainOne[T any](q *Queue[T]) (T, bool) {
	for {
		v, ok := q.Pop()
		if ok {
			return v, true
		}
		if q.Empty() {
			var zero T
			return zero, false
		}
		runtime.Gosched() // a producer is mid-link; its store lands imminently
	}
}

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

// A flooded-then-drained queue must release its buffers: the chain collapses
// back to a single stub, the stub retains no value, and steady-state
// push/pop traffic recycles pooled nodes instead of allocating. This is the
// regression test for the old mutex mailbox's `queue = queue[1:]` leak,
// which retained every drained message until the next append reallocation.
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

	// Structurally drained: tail == head means one stub and no chain.
	if q.tail.Load() != q.head.Load() {
		t.Fatal("drained queue still holds a chain of nodes")
	}
	// The stub must not pin the last message.
	if q.tail.Load().val != nil {
		t.Fatal("stub node retains the last drained value")
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

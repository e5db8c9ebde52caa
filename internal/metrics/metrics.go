// Package metrics implements the characterizing metrics of Table 2 of the
// Renaissance paper (Prokopec et al., PLDI 2019): dynamic usage counters for
// the basic concurrency primitives (synchronized sections, wait/notify,
// atomic operations, thread parking), the basic object-oriented primitives
// (object allocation, array allocation, dynamic dispatch), and the
// invokedynamic-style closure dispatch counter, together with CPU
// utilization, a cache-miss proxy, and reference-cycle normalization.
//
// On the JVM the paper collects these with DiSL bytecode instrumentation and
// hardware counters. Here every substrate package (actors, stm, forkjoin,
// rdd, ...) calls the Inc* and Add* functions at the corresponding
// primitive operation, which keeps the instrumentation at the same
// abstraction boundary. The counting is not free: every counted event is
// an atomic add, and where events are dense the adds are a measurable share
// of a workload's time (EXPERIMENTS.md, "transactional: where the time
// went").
//
// # One way into the counters
//
// A Recorder is striped: it holds a power-of-two number of shards, and each
// shard keeps every metric in its own 64-byte cache-line-padded lane. A
// counter bump therefore never contends with a bump of a different metric
// (no false sharing between adjacent counters) and rarely contends with the
// same metric bumped by another goroutine (writers spread across shards via
// a cheap per-goroutine hash). Reads — Get, Snapshot — sum across shards.
// Counts are exact, not sampled: every bump lands in exactly one shard lane
// and every read sums all lanes.
//
// Every count reaches a Recorder through Add on the calling goroutine's
// hashed shard. A function that counts inside its own loop sums the events
// in a local variable and adds once before it returns. An owner with a
// natural point to hand its counts over counts into a Batch instead, plain
// int64s it alone writes, and flushes them there. An STM transaction does,
// flushing when Atomically returns: a read makes three counted events, and
// as atomic adds they were most of stm-bench7's time.
package metrics

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Metric identifies one of the characterizing metrics of Table 2.
type Metric int

// The metrics of Table 2, in the paper's order.
const (
	Synch     Metric = iota // synchronized methods and blocks executed
	Wait                    // Object.wait() analogues (guarded-block waits)
	Notify                  // Object.notify()/notifyAll() analogues
	Atomic                  // atomic memory operations (CAS, fetch-add, ...)
	Park                    // thread/goroutine park operations
	CPU                     // process CPU time as a share of GOMAXPROCS capacity
	CacheMiss               // cache misses (simulated or allocation proxy)
	Object                  // objects allocated
	Array                   // arrays (slices) allocated
	Method                  // dynamic dispatch (virtual/interface calls)
	IDynamic                // invokedynamic analogues (closure dispatch)
	// DeadLetter extends Table 2 with a fault-path counter: messages that
	// could not be delivered (sends to stopped actors, mailbox drains of a
	// stopped actor, rejected netstack requests). It quantifies the
	// concurrency-primitive cost of failure handling the same way the
	// other counters quantify the happy path.
	DeadLetter
	// StmAbort extends Table 2 with the STM contention-manager counters:
	// transactional aborts (conflicts detected at read, lock acquisition,
	// or validation time, plus injected commit faults). Together with
	// StmExtend it characterizes how much optimistic work the atomic/STM
	// workload cluster discards versus salvages.
	StmAbort
	// StmExtend counts successful TL2 timestamp extensions: reads that
	// would have aborted the transaction under plain TL2 but instead
	// revalidated the read set against a newer clock and continued.
	StmExtend
	// RddRecompute extends Table 2 with the RDD engine's recovery counter:
	// partition recomputes — a partition attempt that failed (panic,
	// TaskError, or injected chaos fault) and was re-evaluated from its
	// lineage. Zero on a fault-free run.
	RddRecompute

	NumMetrics // number of metrics
)

var metricNames = [NumMetrics]string{
	"synch", "wait", "notify", "atomic", "park", "cpu",
	"cachemiss", "object", "array", "method", "idynamic", "deadletter",
	"stmabort", "stmextend", "rddrecompute",
}

// String returns the paper's short name for the metric.
func (m Metric) String() string {
	if m < 0 || m >= NumMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// AllMetrics returns the metrics in Table 2 order.
func AllMetrics() []Metric {
	ms := make([]Metric, NumMetrics)
	for i := range ms {
		ms[i] = Metric(i)
	}
	return ms
}

// PaperMetrics returns the 11 metrics of the paper's Table 2, in Table 2
// order: the columns of the §4 PCA and of Table 7. The diagnostic counters
// that follow them (DeadLetter, StmAbort, StmExtend, RddRecompute) stay in
// every Snapshot and Result, but they count failure handling rather than
// characterize a workload, so the diversity analysis leaves them out.
func PaperMetrics() []Metric { return AllMetrics()[:IDynamic+1] }

// Counted reports whether the metric is a dynamic event counter (as opposed
// to the measured CPU utilization, which is a ratio).
func (m Metric) Counted() bool { return m != CPU }

// cacheLine is the assumed cache-line size; lanes are padded to it so that
// no two counters ever share a line.
const cacheLine = 64

// maxShards bounds the stripe count (and therefore the size of the
// zero-value Recorder, which embeds the full shard array so that it stays
// ready to use without initialization).
const maxShards = 64

var (
	numShards = computeShards()
	shardMask = uint64(numShards - 1)
)

// computeShards picks a power-of-two stripe count of at least 8 and at
// least the machine's parallelism, capped at maxShards.
func computeShards() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > n {
		n = g
	}
	if n < 8 {
		n = 8
	}
	if n > maxShards {
		n = maxShards
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// lane is one counter on its own cache line.
type lane struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// shard holds one padded lane per metric.
type shard struct {
	lanes [NumMetrics]lane
}

// shardIndex hashes the current goroutine's stack address to a shard.
// Distinct goroutines occupy distinct stacks, so this spreads concurrent
// writers across shards at the cost of a couple of ALU ops; the value is
// not stable across stack growth, which is fine — any shard is correct,
// the hash only reduces contention.
func shardIndex() uint64 {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return (h >> 32) & shardMask
}

// A Recorder accumulates the event counters. The zero value is ready to use.
// All methods are safe for concurrent use.
type Recorder struct {
	shards [maxShards]shard
}

// Default is the process-wide recorder used by the substrate packages.
var Default = &Recorder{}

// Add adds delta occurrences of metric m.
func (r *Recorder) Add(m Metric, delta int64) {
	r.shards[shardIndex()].lanes[m].v.Add(delta)
}

// Get returns the current count of metric m, summed across shards.
func (r *Recorder) Get(m Metric) int64 {
	var n int64
	for i := 0; i < numShards; i++ {
		n += r.shards[i].lanes[m].v.Load()
	}
	return n
}

// Snapshot captures the current value of every counter (each metric summed
// across shards).
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	for i := 0; i < numShards; i++ {
		for m := range r.shards[i].lanes {
			s.Counts[m] += r.shards[i].lanes[m].v.Load()
		}
	}
	return s
}

// A Batch counts events for one owner in plain memory and hands them to
// Default in one Flush: a bump is an ordinary increment with no atomic and
// no shared cache line. It suits an owner with a natural flush point, such
// as a transaction that ends when Atomically returns; the owner must flush
// before it blocks if its counts should be visible while it waits. Counts
// stay exact: Flush adds every lane it holds. The zero value is ready to
// use; a Batch must not be shared between goroutines.
type Batch struct {
	n [NumMetrics]int64
}

// IncWait records a guarded-block wait.
func (b *Batch) IncWait() { b.n[Wait]++ }

// IncNotify records a notify/notifyAll.
func (b *Batch) IncNotify() { b.n[Notify]++ }

// IncAtomic records one atomic memory operation.
func (b *Batch) IncAtomic() { b.n[Atomic]++ }

// IncPark records a goroutine park.
func (b *Batch) IncPark() { b.n[Park]++ }

// IncStmAbort records one STM transactional abort.
func (b *Batch) IncStmAbort() { b.n[StmAbort]++ }

// IncStmExtend records one successful STM timestamp extension.
func (b *Batch) IncStmExtend() { b.n[StmExtend]++ }

// Flush adds every non-zero lane to Default and zeroes the batch. Flushing
// an empty batch touches no shared memory.
func (b *Batch) Flush() {
	for m, v := range b.n {
		if v != 0 {
			Default.Add(Metric(m), v)
			b.n[m] = 0
		}
	}
}

// A Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Counts [NumMetrics]int64
}

// Delta returns the per-metric difference s - earlier.
func (s Snapshot) Delta(earlier Snapshot) Snapshot {
	var d Snapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - earlier.Counts[i]
	}
	return d
}

// Get returns the snapshot's count for metric m.
func (s Snapshot) Get(m Metric) int64 { return s.Counts[m] }

// Convenience wrappers over the Default recorder. These are what the
// substrate packages call at their primitive operations.

// IncSynch records entry into a synchronized (mutex-protected) section.
func IncSynch() { Default.Add(Synch, 1) }

// AddSynch records n synchronized-section entries.
func AddSynch(n int64) { Default.Add(Synch, n) }

// IncNotify records a notify/notifyAll (condition-variable signal).
func IncNotify() { Default.Add(Notify, 1) }

// IncAtomic records one atomic memory operation (CAS, fetch-add, ...).
func IncAtomic() { Default.Add(Atomic, 1) }

// AddAtomic records n atomic memory operations.
func AddAtomic(n int64) { Default.Add(Atomic, n) }

// IncPark records a goroutine park (blocking channel receive used as a
// scheduler park point, or semaphore-style blocking).
func IncPark() { Default.Add(Park, 1) }

// IncObject records one object allocation performed by a substrate.
func IncObject() { Default.Add(Object, 1) }

// AddObject records n object allocations.
func AddObject(n int64) { Default.Add(Object, n) }

// IncArray records one array (slice) allocation performed by a substrate.
func IncArray() { Default.Add(Array, 1) }

// AddArray records n array allocations.
func AddArray(n int64) { Default.Add(Array, n) }

// IncMethod records one dynamically dispatched call (virtual/interface).
func IncMethod() { Default.Add(Method, 1) }

// AddMethod records n dynamically dispatched calls.
func AddMethod(n int64) { Default.Add(Method, n) }

// IncIDynamic records one invokedynamic analogue: invoking a closure or
// function value passed to a higher-order operation (map, filter, ...).
func IncIDynamic() { Default.Add(IDynamic, 1) }

// AddIDynamic records n invokedynamic analogues.
func AddIDynamic(n int64) { Default.Add(IDynamic, n) }

// IncDeadLetter records one dropped or dead-lettered message (a send to a
// stopped actor, a message drained from a stopped actor's mailbox, or a
// rejected netstack request).
func IncDeadLetter() { Default.Add(DeadLetter, 1) }

// IncRddRecompute records one RDD partition recompute (a failed partition
// attempt re-evaluated from its lineage).
func IncRddRecompute() { Default.Add(RddRecompute, 1) }

// Package stm implements a TL2-style software transactional memory in the
// spirit of ScalaSTM (Bronson et al.), used by the philosophers and
// stm-bench7 benchmarks (Table 1: "STM, atomics, guarded blocks").
//
// Each transactional reference carries a versioned lock word manipulated
// with compare-and-swap; transactions keep read and write sets, validate
// reads against a global version clock, and commit by locking the write set
// in a canonical order. Retry implements the guarded-block pattern: a
// transaction that calls Retry blocks until another transaction commits to
// one of the refs it read, which maps onto the paper's wait/notify metrics.
//
// # Fast paths (DESIGN.md §12)
//
// The common transaction is allocation-free and uncontended:
//
//   - Tx objects are pooled; the read set and write set are reusable
//     vectors, not maps. The write set is kept id-sorted by insertion
//     (linear scan for small sets, binary search beyond), which also gives
//     the deadlock-free canonical lock order at commit with no per-commit
//     sort.
//   - Ref values are stored directly in an atomic.Value with no wrapper
//     box, so a commit's publish step performs no heap allocation. This
//     makes refs type-stable: every value stored in one Ref must have the
//     same concrete type (atomic.Value's rule). Use a small named struct
//     type if a ref must hold varying payloads.
//   - Retry parks on a per-ref waiter table (waiters.go), not a global
//     broadcast channel, and a committing transaction checks a single
//     "no waiters anywhere" atomic before doing any notification work, so
//     the overwhelmingly common waiter-free commit performs zero channel
//     and zero mutex operations.
//
// # Contention management
//
// Conflict aborts back off exponentially (bounded, seeded jitter); commit
// lock acquisition spins a bounded number of times before aborting rather
// than spinning on a locked ref forever; and a read that observes a version
// newer than the transaction's read timestamp attempts a TL2 timestamp
// extension — revalidating the read set against the current clock — instead
// of aborting, so long read-only traversals survive concurrent short
// writers instead of livelocking.
//
// Contention notes: the global version clock lives on its own cache line so
// that commit-time fetch-adds do not false-share with neighbouring package
// state, and it is only advanced by read-write commits — read-only
// transactions observe it but never write it.
//
// # Instrumentation
//
// A transaction counts its metric events (three atomics per read, one per
// begin, and so on) into its own metrics.Batch, plain int64s, and flushes
// them to the recorder once: when Atomically returns, and before each
// blocking call (the Retry park, the backoff sleep), so a blocked
// transaction's wait and park are visible while it blocks. The counts are
// the same as one atomic add per event would give; the adds were most of
// stm-bench7's time (EXPERIMENTS.md, "transactional: where the time went").
package stm

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
)

// globalClock is the TL2 global version clock, padded to a cache line of
// its own: every read-write commit fetch-adds it, and sharing a line with
// other hot package state would couple their costs.
var globalClock struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// refIDs allocates unique reference identities for deadlock-free lock
// ordering at commit time and for waiter-table striping.
var refIDs atomic.Uint64

// Spin and backoff bounds of the contention manager.
const (
	// readSpinLimit bounds how long Tx.Read spins on a write-locked ref
	// before aborting the attempt (the lock holder is about to publish a
	// conflicting version anyway).
	readSpinLimit = 64
	// commitSpinLimit bounds the spin-then-abort loop when commit lock
	// acquisition hits a locked ref.
	commitSpinLimit = 32
	// readAtomicSpinLimit bounds ReadAtomic's seqlock retry before it
	// starts yielding the processor between attempts.
	readAtomicSpinLimit = 32
	// backoffSpinAborts conflict aborts are absorbed with a bare yield
	// before the exponential sleep backoff engages.
	backoffSpinAborts = 2
	// backoffBase is the first backoff window, doubled per further abort
	// up to backoffMax; the sleep is drawn uniformly from the window's
	// upper half.
	backoffBase = 2 * time.Microsecond
	backoffMax  = 128 * time.Microsecond
)

// A Ref is a transactional memory cell. The zero value is not usable;
// create refs with NewRef. Refs are type-stable: every value stored in a
// given Ref must have the same concrete type as the initial value.
type Ref struct {
	id uint64
	// state packs (version << 1) | lockedBit.
	state atomic.Int64
	value atomic.Value
}

// nilValue stands in for an untyped nil inside the atomic.Value (which
// rejects nil); it round-trips through boxNil/unboxNil.
type nilValue struct{}

func boxNil(v any) any {
	if v == nil {
		return nilValue{}
	}
	return v
}

func unboxNil(v any) any {
	if _, isNil := v.(nilValue); isNil {
		return nil
	}
	return v
}

// NewRef creates a transactional reference holding the initial value.
func NewRef(initial any) *Ref {
	metrics.IncObject()
	r := &Ref{id: refIDs.Add(1)}
	r.value.Store(boxNil(initial))
	return r
}

func (r *Ref) loadState(c *metrics.Batch) int64 {
	c.IncAtomic()
	return r.state.Load()
}

func stateVersion(s int64) int64 { return s >> 1 }
func stateLocked(s int64) bool   { return s&1 == 1 }

// spinLock acquires the ref's versioned lock, spinning a bounded number of
// times when the ref is already locked (the holder is mid-publish and will
// release quickly); past the bound it gives up so the caller can abort and
// back off instead of convoying.
func (r *Ref) spinLock(c *metrics.Batch) (prev int64, ok bool) {
	for spin := 0; spin < commitSpinLimit; spin++ {
		s := r.loadState(c)
		if !stateLocked(s) {
			c.IncAtomic()
			if r.state.CompareAndSwap(s, s|1) {
				return s, true
			}
			continue
		}
		if spin&7 == 7 {
			runtime.Gosched()
		}
	}
	return 0, false
}

func (r *Ref) unlock(c *metrics.Batch, version int64) {
	c.IncAtomic()
	r.state.Store(version << 1)
}

// rawLoad reads the current value without transactional protection; used
// internally after validation and by ReadAtomic.
func (r *Ref) rawLoad(c *metrics.Batch) any {
	c.IncAtomic()
	return unboxNil(r.value.Load())
}

// errConflict aborts and restarts the enclosing transaction.
var errConflict = errors.New("stm: conflict")

// retrySignal makes Atomically block until another transaction commits.
type retrySignal struct{}

// Tx is an in-flight transaction. It must only be used by the function it
// was passed to, on that goroutine, and must not be retained after the
// function returns (transactions are pooled).
type Tx struct {
	readVersion int64
	reads       []readEntry
	// writes is kept sorted by ref id on insertion: commit locks it in
	// index order (canonical, deadlock-free) with no per-commit sort.
	writes []writeEntry
	// counts holds the transaction's metric events until release (or a
	// blocking call) flushes them to the recorder.
	counts metrics.Batch
	id     uint64 // the backoff jitter's nonce
	// Aborts counts how many times this transaction body was restarted.
	Aborts int
	// Extensions counts successful TL2 timestamp extensions: reads that
	// would have aborted under plain TL2 but revalidated against a newer
	// clock instead.
	Extensions int
}

type readEntry struct {
	ref     *Ref
	version int64
}

type writeEntry struct {
	ref *Ref
	v   any
	// prev is the ref's pre-lock state, recorded at commit time so an
	// aborting commit can restore the old version word.
	prev int64
}

// smallWriteSet is the write-set size up to which lookups use a linear
// scan; larger sets switch to binary search over the id-sorted vector.
const smallWriteSet = 8

// searchWrites returns the index of id in the id-sorted write set, or the
// insertion point with found=false.
func (tx *Tx) searchWrites(id uint64) (int, bool) {
	w := tx.writes
	if len(w) <= smallWriteSet {
		for i := range w {
			if w[i].ref.id >= id {
				return i, w[i].ref.id == id
			}
		}
		return len(w), false
	}
	lo, hi := 0, len(w)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w[mid].ref.id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(w) && w[lo].ref.id == id
}

// Read returns the ref's value as seen by the transaction.
func (tx *Tx) Read(r *Ref) any {
	if i, found := tx.searchWrites(r.id); found {
		return tx.writes[i].v
	}
	for spins := 0; ; spins++ {
		s1 := r.loadState(&tx.counts)
		if !stateLocked(s1) {
			v := r.rawLoad(&tx.counts)
			if r.loadState(&tx.counts) == s1 {
				if stateVersion(s1) > tx.readVersion {
					// The ref moved past our read timestamp. Instead of
					// aborting, try to extend: if every ref read so far is
					// unchanged, the snapshot is still valid at the current
					// clock, and the read can be retried under the new
					// timestamp.
					if !tx.extend() {
						panic(errConflict)
					}
					continue
				}
				tx.reads = append(tx.reads, readEntry{r, stateVersion(s1)})
				return v
			}
		}
		if spins >= readSpinLimit {
			panic(errConflict)
		}
		if spins&7 == 7 {
			runtime.Gosched()
		}
	}
}

// extend attempts a TL2 timestamp extension: it snapshots the current
// clock, revalidates every read made so far, and on success advances the
// transaction's read timestamp to the snapshot. Reads validated this way
// are exactly as consistent as reads made at the new timestamp, so a long
// read-only traversal survives concurrent short writers that bump the
// clock on refs the traversal never touches.
func (tx *Tx) extend() bool {
	tx.counts.IncAtomic()
	newRV := globalClock.v.Load()
	for i := range tx.reads {
		re := &tx.reads[i]
		s := re.ref.loadState(&tx.counts)
		if stateLocked(s) || stateVersion(s) != re.version {
			return false
		}
	}
	tx.readVersion = newRV
	tx.Extensions++
	tx.counts.IncStmExtend()
	return true
}

// Write records a new value for the ref in the transaction's write set
// (id-sorted insert; overwrites an existing entry for the same ref).
func (tx *Tx) Write(r *Ref, v any) {
	i, found := tx.searchWrites(r.id)
	if found {
		tx.writes[i].v = v
		return
	}
	tx.writes = append(tx.writes, writeEntry{})
	copy(tx.writes[i+1:], tx.writes[i:])
	tx.writes[i] = writeEntry{ref: r, v: v}
}

// Retry abandons the transaction and blocks until another transaction
// commits to a ref in its read set — the STM guarded-block operation.
func (tx *Tx) Retry() {
	panic(retrySignal{})
}

// Atomically runs fn transactionally: fn may be executed several times, and
// its STM effects take place all-or-nothing. A non-nil error from fn rolls
// the transaction back and is returned.
func Atomically(fn func(tx *Tx) error) error {
	tx := acquireTx()
	defer tx.release()
	for {
		tx.begin()
		outcome, err := runAttempt(tx, fn)
		switch outcome {
		case attemptOK:
			if err != nil {
				return err // rolled back by discarding the write set
			}
			if tx.commit() {
				return nil
			}
			tx.onConflict()
		case attemptConflict:
			tx.onConflict()
		case attemptRetry:
			tx.counts.IncWait()
			tx.waitForChange()
			tx.Aborts++
		}
	}
}

// begin resets the per-attempt state and takes the read timestamp.
func (tx *Tx) begin() {
	tx.clearSets()
	tx.counts.IncAtomic()
	tx.readVersion = globalClock.v.Load()
}

// onConflict records a conflict abort and applies the contention manager's
// backoff policy: the first few aborts just yield, then the wait grows
// exponentially (bounded, with seeded jitter) so colliding transactions
// desynchronize instead of re-colliding in lockstep.
func (tx *Tx) onConflict() {
	tx.Aborts++
	tx.counts.IncStmAbort()
	if tx.Aborts <= backoffSpinAborts {
		runtime.Gosched()
		return
	}
	tx.counts.IncPark()
	tx.counts.Flush()
	time.Sleep(chaos.Backoff(backoffBase, backoffMax, tx.Aborts-backoffSpinAborts, chaos.Seed(), tx.id))
}

type attemptOutcome int

const (
	attemptOK attemptOutcome = iota
	attemptConflict
	attemptRetry
)

func runAttempt(tx *Tx, fn func(tx *Tx) error) (outcome attemptOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			switch p {
			case errConflict:
				outcome = attemptConflict
			default:
				if _, isRetry := p.(retrySignal); isRetry {
					outcome = attemptRetry
					return
				}
				panic(p)
			}
		}
	}()
	err = fn(tx)
	return attemptOK, err
}

// commit attempts the TL2 commit protocol; it reports success. Only
// read-write transactions advance the global clock: a read-only commit
// validated its reads on the fly and returns without touching shared state.
//
// Ordering: lock the write set in id order (bounded spin per ref), take the
// write version from the clock, validate the read set (skipped entirely
// when the clock moved by exactly one — no concurrent commit intervened),
// publish values and unlock, and only then — behind a single "any waiters?"
// atomic check — wake parked Retry-ers registered on the written refs.
func (tx *Tx) commit() bool {
	if chaos.Maybe("stm.commit") {
		// An injected abort is indistinguishable from losing a real
		// validation race: Atomically re-runs the transaction, which is
		// exactly the degradation path under test.
		return false
	}
	if len(tx.writes) == 0 {
		// Read-only transaction: reads were validated on the fly.
		return true
	}

	// Lock the write set in id order (the vector is already id-sorted).
	locked := 0
	for i := range tx.writes {
		w := &tx.writes[i]
		prev, ok := w.ref.spinLock(&tx.counts)
		if !ok || stateVersion(prev) > tx.readVersion {
			if ok {
				w.ref.unlock(&tx.counts, stateVersion(prev))
			}
			tx.unlockPrefix(locked)
			return false
		}
		w.prev = prev
		locked++
	}

	tx.counts.IncAtomic()
	wv := globalClock.v.Add(1)
	if wv != tx.readVersion+1 {
		// Some other transaction committed since we began; the read set
		// must still be what we saw.
		for i := range tx.reads {
			re := &tx.reads[i]
			s := re.ref.loadState(&tx.counts)
			if stateVersion(s) != re.version {
				tx.unlockPrefix(locked)
				return false
			}
			if stateLocked(s) {
				if _, mine := tx.searchWrites(re.ref.id); !mine {
					tx.unlockPrefix(locked)
					return false
				}
			}
		}
	}

	// Publish.
	for i := range tx.writes {
		w := &tx.writes[i]
		tx.counts.IncAtomic()
		w.ref.value.Store(boxNil(w.v))
		w.ref.unlock(&tx.counts, wv)
	}

	// Waiter-free fast path: one atomic load, no channel or mutex ops.
	if waiterCount.v.Load() > 0 {
		tx.wakeWaiters()
	}
	return true
}

// unlockPrefix releases the first n locked write-set entries at their
// pre-lock versions.
func (tx *Tx) unlockPrefix(n int) {
	for i := 0; i < n; i++ {
		w := &tx.writes[i]
		w.ref.unlock(&tx.counts, stateVersion(w.prev))
	}
}

// ReadAtomic returns the ref's current committed value outside any
// transaction (equivalent to a single-read transaction). The seqlock retry
// is bounded: past the spin limit it yields the processor between attempts
// instead of busy-spinning against a parked or preempted lock holder.
//
// Its reads count into a stack Batch flushed on return; the park of each
// yield goes to the recorder at once, so a reader locked out for long is
// visible while it spins.
func ReadAtomic(r *Ref) any {
	var c metrics.Batch
	for spins := 0; ; spins++ {
		s1 := r.loadState(&c)
		if !stateLocked(s1) {
			v := r.rawLoad(&c)
			if r.loadState(&c) == s1 {
				c.Flush()
				return v
			}
		}
		if spins >= readAtomicSpinLimit {
			metrics.IncPark()
			runtime.Gosched()
		}
	}
}

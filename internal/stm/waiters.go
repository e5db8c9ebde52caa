// Per-ref waiter registration: the guarded-block (Retry) slow path.
//
// The seed implementation woke every parked transaction on every commit
// through a global mutex-guarded broadcast channel, costing two mutex
// operations per commit whether or not anyone was waiting, and stampeding
// every waiter on every commit. Here a Retry-ing transaction registers a
// waiter node on the stripe of each ref in its read set (a lock-free
// Treiber push; stripes are keyed by ref id), and a committing transaction
// consults a single process-wide waiter count — one atomic load — before
// doing any notification work at all. Only commits that actually overlap a
// populated stripe walk it, waking exactly the waiters registered for the
// written refs.
//
// Lost-wakeup freedom. The waiter publishes its registration (count
// increment, then node pushes) before revalidating its read set, and the
// committer publishes its writes (value stores + version unlocks) before
// loading the waiter count and detaching stripes. With sequentially
// consistent atomics this pairs as a classic store/load fence: either the
// committer's detach observes the waiter's node and fires it, or the
// waiter's revalidation observes the committer's new version and returns
// without parking. There is no window in which a waiter parks against a
// commit it cannot see.
//
// Dropped wakeups (the stm.wake chaos point simulates exactly this) are
// not fatal: a parked waiter revalidates its read set on a periodic timer
// with a growing period, so a lost signal degrades to bounded extra
// latency, never to a hang.
package stm

import (
	"sync/atomic"
	"time"

	"renaissance/internal/chaos"
)

const (
	// waiterStripeCount is the number of waiter-table stripes (power of
	// two); refs hash onto stripes by id.
	waiterStripeCount = 64
	// maxRegistered caps how many read-set refs a waiter registers on.
	// Guarded blocks have small read sets in practice; a pathological
	// waiter with a huge read set registers on the first maxRegistered
	// refs and relies on periodic revalidation for the rest, trading
	// wakeup latency for bounded registration cost.
	maxRegistered = 128
	// revalInitial/revalMax bound the periodic revalidation timer: the
	// period doubles from the initial value up to the cap, so short waits
	// recover from a lost wakeup quickly while long waits do not spin.
	revalInitial = 200 * time.Microsecond
	revalMax     = 5 * time.Millisecond
)

// Waiter states. A node only acts on a waiter whose state it can move
// waiting→fired with a CAS, so every waiter is woken at most once and a
// cancelled waiter is never signalled.
const (
	waiterWaiting int32 = iota
	waiterFired
	waiterCancelled
)

// waiter is one parked Retry-er. The channel has capacity 1 and is sent to
// non-blockingly, so a committer never blocks on a slow waiter.
type waiter struct {
	ch    chan struct{}
	state atomic.Int32
}

// waiterNode links a waiter into one stripe for one ref id. Nodes are
// owned by whoever detached the stripe; stale nodes (fired or cancelled
// waiters) are dropped during the next detach of their stripe.
type waiterNode struct {
	next  *waiterNode
	w     *waiter
	refID uint64
}

// waiterStripe is one lock-free stack of registrations, padded so hot
// stripes do not false-share.
type waiterStripe struct {
	_    [64]byte
	head atomic.Pointer[waiterNode]
	_    [56]byte
}

var waiterTable [waiterStripeCount]waiterStripe

// waiterCount is the global "anyone waiting?" gate, on its own cache line:
// the waiter-free commit fast path is a single load of this counter.
var waiterCount struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

func stripeFor(id uint64) *waiterStripe {
	return &waiterTable[id&(waiterStripeCount-1)]
}

func (st *waiterStripe) push(n *waiterNode) {
	for {
		h := st.head.Load()
		n.next = h
		if st.head.CompareAndSwap(h, n) {
			return
		}
	}
}

// readSetChanged reports whether any ref in the transaction's read set has
// moved past the version recorded when it was read (a locked ref counts as
// changing: the holder is about to publish).
func (tx *Tx) readSetChanged() bool {
	for i := range tx.reads {
		re := &tx.reads[i]
		s := re.ref.loadState(tx.loc)
		if stateLocked(s) || stateVersion(s) != re.version {
			return true
		}
	}
	return false
}

// waitForChange parks the transaction until some committed transaction
// overlaps its read set: it registers a waiter on each read ref's stripe,
// revalidates (closing the register-vs-commit race), and then blocks on
// its signal channel with a periodic revalidation timer as the
// lost-wakeup backstop.
func (tx *Tx) waitForChange() {
	if len(tx.reads) == 0 {
		// Degenerate guarded block that read nothing: there is no ref to
		// wait on, so yield briefly and re-execute.
		tx.loc.IncPark()
		time.Sleep(revalInitial)
		return
	}

	w := &waiter{ch: make(chan struct{}, 1)}
	waiterCount.v.Add(1)
	registered := 0
	var lastID uint64
	for i := range tx.reads {
		if registered >= maxRegistered {
			break
		}
		id := tx.reads[i].ref.id
		if registered > 0 && id == lastID {
			continue // cheap dedup of consecutive re-reads
		}
		stripeFor(id).push(&waiterNode{w: w, refID: id})
		lastID = id
		registered++
	}

	// Registration is published; if a commit already changed a read ref
	// (before or while we registered), return immediately — parking now
	// could miss a wakeup that fired before our nodes were visible.
	if tx.readSetChanged() {
		w.state.CompareAndSwap(waiterWaiting, waiterCancelled)
		waiterCount.v.Add(-1)
		return
	}

	period := revalInitial
	timer := time.NewTimer(period)
	defer timer.Stop()
	for {
		tx.loc.IncPark()
		select {
		case <-w.ch:
			waiterCount.v.Add(-1)
			return
		case <-timer.C:
			if tx.readSetChanged() {
				w.state.CompareAndSwap(waiterWaiting, waiterCancelled)
				waiterCount.v.Add(-1)
				return
			}
			period *= 2
			if period > revalMax {
				period = revalMax
			}
			timer.Reset(period)
		}
	}
}

// wakeWaiters walks the stripes of the written refs and fires every waiter
// registered for one of them. Called only when waiterCount is non-zero.
// Each touched stripe is detached wholesale (an unconditional swap, immune
// to ABA), matching nodes are fired, stale nodes are dropped, and live
// nodes for other refs are pushed back.
func (tx *Tx) wakeWaiters() {
	for i := range tx.writes {
		id := tx.writes[i].ref.id
		st := stripeFor(id)
		if st.head.Load() == nil {
			continue
		}
		n := st.head.Swap(nil)
		var keep *waiterNode
		for n != nil {
			next := n.next
			if n.w.state.Load() == waiterWaiting {
				if n.refID == id {
					if n.w.state.CompareAndSwap(waiterWaiting, waiterFired) {
						tx.loc.IncNotify()
						if !chaos.Maybe("stm.wake") {
							select {
							case n.w.ch <- struct{}{}:
							default:
							}
						}
						// A dropped send (chaos) models a lost wakeup: the
						// waiter recovers via periodic revalidation.
					}
				} else {
					n.next = keep
					keep = n
				}
			}
			n = next
		}
		for keep != nil {
			next := keep.next
			st.push(keep)
			keep = next
		}
	}
}

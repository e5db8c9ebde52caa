// Transaction pooling: the zero-allocation steady state.
//
// The seed allocated a fresh Tx, a map[*Ref]any write set, and a read-set
// slice per attempt, then sorted the write set at commit. Here Tx objects
// cycle through a sync.Pool and carry reusable id-sorted vectors, so a
// warmed-up transaction allocates nothing: Atomically's fast path is
// pool-get, vector appends into retained capacity, commit, pool-put.
// Oversized vectors (a one-off giant traversal) are dropped back to nil on
// release so the pool does not pin worst-case capacity forever.
package stm

import (
	"sync"
	"sync/atomic"
)

// maxPooledSet caps the vector capacity a pooled Tx may retain.
const maxPooledSet = 1 << 12

// txSeq numbers the pooled transactions; distinct transactions draw
// distinct, deterministic backoff jitter.
var txSeq atomic.Uint64

var txPool = sync.Pool{New: func() any {
	return &Tx{id: txSeq.Add(1)}
}}

// acquireTx readies a pooled transaction for a new Atomically call.
func acquireTx() *Tx {
	tx := txPool.Get().(*Tx)
	tx.Aborts = 0
	tx.Extensions = 0
	return tx
}

// release flushes the transaction's metric counts, clears it (dropping
// references so pooled vectors do not pin user values or refs) and returns
// it to the pool. Atomically defers it, so the counts land when Atomically
// returns, by a panic too.
func (tx *Tx) release() {
	tx.counts.Flush()
	tx.clearSets()
	if cap(tx.reads) > maxPooledSet {
		tx.reads = nil
	}
	if cap(tx.writes) > maxPooledSet {
		tx.writes = nil
	}
	txPool.Put(tx)
}

// clearSets empties the read and write vectors, zeroing entries so stale
// refs and values are not retained across reuse.
func (tx *Tx) clearSets() {
	for i := range tx.reads {
		tx.reads[i] = readEntry{}
	}
	tx.reads = tx.reads[:0]
	for i := range tx.writes {
		tx.writes[i] = writeEntry{}
	}
	tx.writes = tx.writes[:0]
}

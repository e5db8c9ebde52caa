package memdb

import (
	"sync/atomic"

	"renaissance/internal/metrics"
)

// skipMaxLevel bounds the skip list height (2^24 keys expected maximum).
const skipMaxLevel = 24

// SkipList is a lock-free ordered store in the style of Java's
// ConcurrentSkipListMap: nodes are linked with atomic pointers and inserted
// with CAS; deletion is logical (the value pointer is CASed to nil), so no
// node is ever unlinked and traversals need no hazard tracking. Logically
// deleted nodes are revived in place by a later Put of the same key.
type SkipList struct {
	head *skipNode
	size atomic.Int64
}

type skipNode struct {
	key   string
	value atomic.Pointer[[]byte]
	next  []atomic.Pointer[skipNode]
}

// NewSkipList creates an empty lock-free skip list store.
func NewSkipList() *SkipList {
	metrics.IncObject()
	return &SkipList{head: &skipNode{next: make([]atomic.Pointer[skipNode], skipMaxLevel)}}
}

// Name implements Store.
func (s *SkipList) Name() string { return "skiplist" }

// levelFor derives a deterministic node height from the key hash, so
// structure does not depend on insertion interleaving.
func levelFor(key string) int {
	h := fnv(key)
	lvl := 1
	for h&3 == 3 && lvl < skipMaxLevel {
		lvl++
		h >>= 2
	}
	return lvl
}

// findPreds fills preds/succs with the nodes around key at every level. It
// returns the node holding key, if any, and the number of pointer loads it
// made, which the caller adds to the atomic count with its own.
func (s *SkipList) findPreds(key string, preds, succs []*skipNode) (*skipNode, int64) {
	var found *skipNode
	var loads int64
	prev := s.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		loads++
		cur := prev.next[lvl].Load()
		for cur != nil && cur.key < key {
			prev = cur
			loads++
			cur = prev.next[lvl].Load()
		}
		if cur != nil && cur.key == key {
			found = cur
		}
		preds[lvl] = prev
		succs[lvl] = cur
	}
	return found, loads
}

// Put implements Store. Its atomic operations are summed in ops and added
// once, on return.
func (s *SkipList) Put(key string, value []byte) {
	v := &value
	var preds, succs [skipMaxLevel]*skipNode
	var ops int64
	for {
		node, loads := s.findPreds(key, preds[:], succs[:])
		ops += loads
		if node != nil {
			// Key exists (possibly logically deleted): swap the value in.
			metrics.AddAtomic(ops + 1)
			old := node.value.Swap(v)
			if old == nil {
				s.size.Add(1)
			}
			return
		}
		lvl := levelFor(key)
		metrics.IncObject()
		node = &skipNode{key: key, next: make([]atomic.Pointer[skipNode], lvl)}
		node.value.Store(v)
		for i := 0; i < lvl; i++ {
			node.next[i].Store(succs[i])
		}
		// Linearization point: CAS into the bottom level.
		ops++
		if !preds[0].next[0].CompareAndSwap(succs[0], node) {
			continue // lost the race; retry from scratch
		}
		s.size.Add(1)
		// Link the upper levels best-effort; a failed CAS means the
		// neighborhood changed, so re-find and retry that level.
		for i := 1; i < lvl; i++ {
			for {
				ops++
				if preds[i].next[i].CompareAndSwap(succs[i], node) {
					break
				}
				_, loads := s.findPreds(key, preds[:], succs[:])
				ops += loads
				if succs[i] == node {
					break // someone already sees us here
				}
				node.next[i].Store(succs[i])
			}
		}
		metrics.AddAtomic(ops)
		return
	}
}

// Get implements Store.
func (s *SkipList) Get(key string) ([]byte, bool) {
	var loads int64
	prev := s.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		loads++
		cur := prev.next[lvl].Load()
		for cur != nil && cur.key < key {
			prev = cur
			loads++
			cur = prev.next[lvl].Load()
		}
		if cur != nil && cur.key == key {
			metrics.AddAtomic(loads + 1)
			if v := cur.value.Load(); v != nil {
				return *v, true
			}
			return nil, false
		}
	}
	metrics.AddAtomic(loads)
	return nil, false
}

// Delete implements Store (logical deletion).
func (s *SkipList) Delete(key string) bool {
	var preds, succs [skipMaxLevel]*skipNode
	node, loads := s.findPreds(key, preds[:], succs[:])
	if node == nil {
		metrics.AddAtomic(loads)
		return false
	}
	metrics.AddAtomic(loads + 1)
	if node.value.Swap(nil) != nil {
		s.size.Add(-1)
		return true
	}
	return false
}

// Len implements Store.
func (s *SkipList) Len() int {
	metrics.IncAtomic()
	return int(s.size.Load())
}

// Range implements Store, scanning the bottom level and skipping logically
// deleted nodes.
func (s *SkipList) Range(from, to string, fn func(string, []byte) bool) {
	var loads int64
	prev := s.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		loads++
		cur := prev.next[lvl].Load()
		for cur != nil && cur.key < from {
			prev = cur
			loads++
			cur = prev.next[lvl].Load()
		}
	}
	loads++
	cur := prev.next[0].Load()
	for cur != nil && cur.key < to {
		loads++
		if v := cur.value.Load(); v != nil && cur.key >= from {
			if !fn(cur.key, *v) {
				metrics.AddAtomic(loads)
				return
			}
		}
		loads++
		cur = cur.next[0].Load()
	}
	metrics.AddAtomic(loads)
}

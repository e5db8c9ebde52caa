package memdb

import (
	"slices"
	"sync"

	"renaissance/internal/metrics"
)

// btreeOrder is the maximum number of keys per node (order-32 B-tree keeps
// the tree shallow and the nodes cache-friendly).
const btreeOrder = 32

// BTree is an ordered store backed by a B-tree under a readers–writer
// lock: range scans and gets take the read lock, mutations the write lock.
//
// Delete does not rebalance, so below the root a node may hold any number
// of keys from none to btreeOrder, and a delete-heavy tree keeps emptied
// leaves and keyless one-child nodes. What every operation keeps is this:
// an in-order walk visits every key once, in ascending order (an internal
// node has one child more than it has keys, and each subtree's keys lie
// strictly between the keys around it); every leaf is at the same depth;
// the root is a leaf or holds a key; and a delete never adds height.
type BTree struct {
	mu   sync.RWMutex
	root *btreeNode
	size int
}

type btreeNode struct {
	keys     []string
	values   [][]byte
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// newBTreeNode allocates a node at full capacity, so no insert into it
// ever regrows its slices: a node holds at most btreeOrder keys and one
// child more. Each node counts as one object.
func newBTreeNode(leaf bool) *btreeNode {
	metrics.IncObject()
	n := &btreeNode{
		keys:   make([]string, 0, btreeOrder),
		values: make([][]byte, 0, btreeOrder),
	}
	if !leaf {
		n.children = make([]*btreeNode, 0, btreeOrder+1)
	}
	return n
}

// NewBTree creates an empty B-tree store.
func NewBTree() *BTree {
	return &BTree{root: newBTreeNode(true)}
}

// Name implements Store.
func (t *BTree) Name() string { return "btree" }

// find returns the index of key in n.keys, or the child index to descend.
func (n *btreeNode) find(key string) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == key
}

// Get implements Store.
func (t *BTree) Get(key string) ([]byte, bool) {
	metrics.IncSynch()
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for {
		i, found := n.find(key)
		if found {
			return n.values[i], true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Put implements Store.
func (t *BTree) Put(key string, value []byte) {
	metrics.IncSynch()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.root.keys) == btreeOrder {
		// Split the root preemptively (top-down insertion).
		old := t.root
		t.root = newBTreeNode(false)
		t.root.children = append(t.root.children, old)
		t.root.splitChild(0)
	}
	if t.insertNonFull(t.root, key, value) {
		t.size++
	}
}

// splitChild splits the full child at index i of n.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeOrder / 2
	right := newBTreeNode(child.leaf())
	right.keys = append(right.keys, child.keys[mid+1:]...)
	right.values = append(right.values, child.values[mid+1:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	upKey, upVal := child.keys[mid], child.values[mid]
	child.keys = child.keys[:mid]
	child.values = child.values[:mid]

	n.keys = append(n.keys, "")
	n.values = append(n.values, nil)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.values[i+1:], n.values[i:])
	n.keys[i], n.values[i] = upKey, upVal

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insertNonFull inserts into a node known not to be full; it reports
// whether a new key was added (vs. replaced).
func (t *BTree) insertNonFull(n *btreeNode, key string, value []byte) bool {
	for {
		i, found := n.find(key)
		if found {
			n.values[i] = value
			return false
		}
		if n.leaf() {
			n.keys = append(n.keys, "")
			n.values = append(n.values, nil)
			copy(n.keys[i+1:], n.keys[i:])
			copy(n.values[i+1:], n.values[i:])
			n.keys[i], n.values[i] = key, value
			return true
		}
		if len(n.children[i].keys) == btreeOrder {
			n.splitChild(i)
			if key == n.keys[i] {
				n.values[i] = value
				return false
			}
			if key > n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete implements Store. The key is located and removed; an internal
// key is replaced by its in-order predecessor. Nodes are allowed to
// underflow, down to no keys (no rebalancing, see BTree), which keeps
// lookups correct and is a common simplification for in-memory stores
// with mixed workloads. A root left internal with no keys and a single
// child is replaced by that child, so a delete-heavy tree loses height.
func (t *BTree) Delete(key string) bool {
	metrics.IncSynch()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for {
		i, found := n.find(key)
		if found {
			if n.leaf() {
				n.removeKey(i)
			} else if k, v, ok := n.children[i].popMax(); ok {
				n.keys[i], n.values[i] = k, v
			} else {
				// The left subtree holds no keys: drop it with the key.
				n.removeKey(i)
				n.children = slices.Delete(n.children, i, i+1)
			}
			for !t.root.leaf() && len(t.root.keys) == 0 {
				t.root = t.root.children[0]
			}
			t.size--
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// removeKey removes key i and its value from n, zeroing the vacated slot.
func (n *btreeNode) removeKey(i int) {
	n.keys = slices.Delete(n.keys, i, i+1)
	n.values = slices.Delete(n.values, i, i+1)
}

// popMax removes and returns the largest key of the subtree rooted at n,
// reporting false if the subtree holds no keys. Underflowed nodes may be
// empty anywhere, so the largest key is the rightmost non-empty position:
// the last child's subtree if it holds a key, else the last key of n, whose
// empty right child is dropped with it.
func (n *btreeNode) popMax() (string, []byte, bool) {
	if !n.leaf() {
		if k, v, ok := n.children[len(n.children)-1].popMax(); ok {
			return k, v, true
		}
	}
	last := len(n.keys) - 1
	if last < 0 {
		return "", nil, false
	}
	k, v := n.keys[last], n.values[last]
	n.removeKey(last)
	if !n.leaf() {
		n.children = slices.Delete(n.children, last+1, last+2)
	}
	return k, v, true
}

// Len implements Store.
func (t *BTree) Len() int {
	metrics.IncSynch()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Range implements Store.
func (t *BTree) Range(from, to string, fn func(string, []byte) bool) {
	metrics.IncSynch()
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.root.rangeScan(from, to, fn)
}

func (n *btreeNode) rangeScan(from, to string, fn func(string, []byte) bool) bool {
	i, _ := n.find(from)
	for ; i < len(n.keys); i++ {
		if !n.leaf() {
			if !n.children[i].rangeScan(from, to, fn) {
				return false
			}
		}
		if n.keys[i] >= to {
			return false
		}
		if n.keys[i] >= from {
			if !fn(n.keys[i], n.values[i]) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].rangeScan(from, to, fn)
	}
	return true
}

// Package memdb implements three concurrent in-memory key-value engines
// behind one interface, the substrate of the db-shootout benchmark
// (Table 1: "query-processing, data structures"): a sharded hash store
// (lock-striped dense arrays), an ordered B-tree store (reader/writer
// locked), and a lock-free skip list (CAS-linked, logical deletion). The
// paper's db-shootout runs a parallel shootout over multiple Java
// in-memory databases; these engines play those roles.
package memdb

import (
	"slices"
	"strings"
	"sync"

	"renaissance/internal/metrics"
)

// Store is the common key-value engine interface.
type Store interface {
	// Put inserts or replaces the value for key.
	Put(key string, value []byte)
	// Get returns the value for key.
	Get(key string) ([]byte, bool)
	// Delete removes the key, reporting whether it was present.
	Delete(key string) bool
	// Range visits keys in [from, to) in ascending order until fn returns
	// false.
	Range(from, to string, fn func(key string, value []byte) bool)
	// Len returns the number of live keys.
	Len() int
	// Name identifies the engine in shootout reports.
	Name() string
}

// Engines returns one fresh instance of every engine, the shootout lineup.
func Engines() []Store {
	return []Store{NewShardedHash(16), NewBTree(), NewSkipList()}
}

// fnv hashes a key for shard selection.
func fnv(key string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// ShardedHash is a hash store with lock striping: each shard is an
// RWMutex-protected dense array of entries plus a map from key to slot, so
// unrelated keys do not contend and a range scan walks a flat slice.
type ShardedHash struct {
	shards []hashShard
}

type hashShard struct {
	mu    sync.RWMutex
	ents  []hashEntry
	index map[string]int32 // key -> slot in ents
}

// hashEntry is one live key. abbr is abbrev(key), so a range scan decides
// most entries on one integer compare without loading the key bytes.
type hashEntry struct {
	abbr uint64
	key  string
	val  []byte
}

// abbrev returns the key's first 8 bytes as a big-endian integer, zero-
// padded. abbrev(a) < abbrev(b) implies a < b; equal abbreviations decide
// nothing, so a tie falls back to comparing the strings.
func abbrev(key string) uint64 {
	var a uint64
	for i := 0; i < 8; i++ {
		a <<= 8
		if i < len(key) {
			a |= uint64(key[i])
		}
	}
	return a
}

// NewShardedHash creates a hash store with the given shard count (0 means
// 16).
func NewShardedHash(shards int) *ShardedHash {
	if shards <= 0 {
		shards = 16
	}
	metrics.IncObject()
	s := &ShardedHash{shards: make([]hashShard, shards)}
	for i := range s.shards {
		s.shards[i].index = make(map[string]int32)
	}
	return s
}

// Name implements Store.
func (s *ShardedHash) Name() string { return "sharded-hash" }

func (s *ShardedHash) shard(key string) *hashShard {
	return &s.shards[fnv(key)%uint64(len(s.shards))]
}

// Put implements Store.
func (s *ShardedHash) Put(key string, value []byte) {
	sh := s.shard(key)
	metrics.IncSynch()
	sh.mu.Lock()
	if j, ok := sh.index[key]; ok {
		sh.ents[j].val = value
	} else {
		sh.index[key] = int32(len(sh.ents))
		sh.ents = append(sh.ents, hashEntry{abbr: abbrev(key), key: key, val: value})
	}
	sh.mu.Unlock()
}

// Get implements Store.
func (s *ShardedHash) Get(key string) ([]byte, bool) {
	sh := s.shard(key)
	metrics.IncSynch()
	sh.mu.RLock()
	j, ok := sh.index[key]
	var v []byte
	if ok {
		v = sh.ents[j].val
	}
	sh.mu.RUnlock()
	return v, ok
}

// Delete implements Store. The last entry moves into the hole and the
// vacated tail slot is zeroed, so the array keeps no reference to the
// deleted key or value.
func (s *ShardedHash) Delete(key string) bool {
	sh := s.shard(key)
	metrics.IncSynch()
	sh.mu.Lock()
	j, ok := sh.index[key]
	if ok {
		delete(sh.index, key)
		last := len(sh.ents) - 1
		if int(j) != last {
			sh.ents[j] = sh.ents[last]
			sh.index[sh.ents[j].key] = j
		}
		sh.ents[last] = hashEntry{}
		sh.ents = sh.ents[:last]
	}
	sh.mu.Unlock()
	return ok
}

// Len implements Store.
func (s *ShardedHash) Len() int {
	metrics.AddSynch(int64(len(s.shards)))
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.ents)
		sh.mu.RUnlock()
	}
	return n
}

// Range implements Store. Hash stores have no order, so the range examines
// every entry of every shard, materializes the matching keys and sorts
// them — the documented cost of range queries on hash engines in the
// shootout.
func (s *ShardedHash) Range(from, to string, fn func(string, []byte) bool) {
	type kv struct {
		k string
		v []byte
	}
	var matches []kv
	fa, ta := abbrev(from), abbrev(to)
	metrics.AddSynch(int64(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.ents {
			e := &sh.ents[j]
			if e.abbr < fa || e.abbr > ta ||
				(e.abbr == fa && e.key < from) || (e.abbr == ta && e.key >= to) {
				continue
			}
			matches = append(matches, kv{e.key, e.val})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(matches, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	for _, m := range matches {
		if !fn(m.k, m.v) {
			return
		}
	}
}

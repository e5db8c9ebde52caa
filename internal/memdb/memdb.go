// Package memdb implements three concurrent in-memory key-value engines
// behind one interface, the substrate of the db-shootout benchmark
// (Table 1: "query-processing, data structures"): a sharded hash store
// (lock-striped maps), an ordered B-tree store (reader/writer locked), and
// a lock-free skip list (CAS-linked, logical deletion). The paper's
// db-shootout runs a parallel shootout over multiple Java in-memory
// databases; these engines play those roles.
package memdb

import (
	"sort"
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

// ShardedHash is a hash store with lock striping: each shard is a mutex-
// protected map, so unrelated keys do not contend.
type ShardedHash struct {
	shards []hashShard
}

type hashShard struct {
	mu sync.RWMutex
	m  map[string][]byte
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
		s.shards[i].m = make(map[string][]byte)
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
	sh.m[key] = value
	sh.mu.Unlock()
}

// Get implements Store.
func (s *ShardedHash) Get(key string) ([]byte, bool) {
	sh := s.shard(key)
	metrics.IncSynch()
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// Delete implements Store.
func (s *ShardedHash) Delete(key string) bool {
	sh := s.shard(key)
	metrics.IncSynch()
	sh.mu.Lock()
	_, ok := sh.m[key]
	delete(sh.m, key)
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
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range implements Store. Hash stores have no order, so the range
// materializes and sorts matching keys — the documented cost of range
// queries on hash engines in the shootout.
func (s *ShardedHash) Range(from, to string, fn func(string, []byte) bool) {
	type kv struct {
		k string
		v []byte
	}
	var matches []kv
	metrics.AddSynch(int64(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			if k >= from && k < to {
				matches = append(matches, kv{k, v})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].k < matches[j].k })
	for _, m := range matches {
		if !fn(m.k, m.v) {
			return
		}
	}
}

// Package cachesim implements a deterministic cache-hierarchy simulator
// fed by the RVM IR executor's memory trace. It stands in for the paper's
// perf-based cachemiss counter (Table 2): L1 data, last-level cache, and
// a data TLB are modeled as set-associative arrays with LRU replacement.
// Object and array accesses are mapped to synthetic addresses derived from
// a stable per-object identity, so the simulation is reproducible.
package cachesim

import (
	"sync"

	"renaissance/internal/rvm"
)

// Config sizes one cache level.
type Config struct {
	Name     string
	Sets     int
	Ways     int
	LineSize int // bytes per line (page size for the TLB)
}

// DefaultHierarchy mirrors a small Xeon-class core: 32 KiB 8-way L1D with
// 64-byte lines, 2 MiB 16-way LLC slice, and a 64-entry 4-way data TLB
// with 4 KiB pages.
func DefaultHierarchy() []Config {
	return []Config{
		{Name: "L1D", Sets: 64, Ways: 8, LineSize: 64},
		{Name: "LLC", Sets: 2048, Ways: 16, LineSize: 64},
		{Name: "DTLB", Sets: 16, Ways: 4, LineSize: 4096},
	}
}

// cache is one set-associative level with LRU replacement.
type cache struct {
	cfg  Config
	sets [][]uint64 // per set: tags in LRU order (front = most recent)

	Accesses int64
	Misses   int64
}

func newCache(cfg Config) *cache {
	return &cache{cfg: cfg, sets: make([][]uint64, cfg.Sets)}
}

// access touches the address and reports whether it missed.
func (c *cache) access(addr uint64) bool {
	line := addr / uint64(c.cfg.LineSize)
	set := line % uint64(c.cfg.Sets)
	tag := line / uint64(c.cfg.Sets)
	c.Accesses++

	ways := c.sets[set]
	for i, t := range ways {
		if t == tag {
			// Move to front (LRU update).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return false
		}
	}
	c.Misses++
	if len(ways) < c.cfg.Ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	c.sets[set] = ways
	return true
}

// Sim is a cache hierarchy implementing ir.MemTracer.
type Sim struct {
	mu     sync.Mutex
	levels []*cache

	// objBase assigns each object a stable synthetic base address.
	objBase map[*rvm.Object]uint64
	nextObj uint64
}

// New creates a simulator with the given hierarchy (nil = default).
func New(cfgs []Config) *Sim {
	if cfgs == nil {
		cfgs = DefaultHierarchy()
	}
	s := &Sim{objBase: make(map[*rvm.Object]uint64), nextObj: 0x10000}
	for _, c := range cfgs {
		s.levels = append(s.levels, newCache(c))
	}
	return s
}

// slotBytes is the modeled size of one field or array element.
const slotBytes = 8

// Access implements ir.MemTracer: the address is the object's synthetic
// base plus the slot offset. A miss in one level proceeds to the next
// (inclusive hierarchy).
func (s *Sim) Access(obj *rvm.Object, index int, write bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.objBase[obj]
	if !ok {
		// Place objects at 64-byte-aligned synthetic addresses, spaced by
		// their payload size.
		size := uint64(len(obj.Fields)+obj.Len())*slotBytes + 16
		size = (size + 63) &^ 63
		base = s.nextObj
		s.nextObj += size
		s.objBase[obj] = base
	}
	addr := base + uint64(index)*slotBytes

	// L1D, then LLC only on L1 miss; the TLB is looked up in parallel.
	l1, llc, tlb := s.levels[0], s.levels[1], s.levels[2]
	if l1.access(addr) {
		llc.access(addr)
	}
	tlb.access(addr)
}

// Counts reports per-level accesses and misses by level name.
func (s *Sim) Counts() map[string][2]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][2]int64, len(s.levels))
	for _, l := range s.levels {
		out[l.cfg.Name] = [2]int64{l.Accesses, l.Misses}
	}
	return out
}

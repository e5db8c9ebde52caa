package memdb

import (
	"fmt"
	"testing"

	"renaissance/internal/metrics"
)

// The skip list counts one atomic per pointer or value load and per CAS or
// swap it performs. The counts are summed per call and added once, so this
// pins the total each operation reports on a fixed key set: the summing
// must reproduce the per-node counts exactly.
func TestSkipListAtomicCountsPerCall(t *testing.T) {
	s := NewSkipList()
	for i := 0; i < 64; i += 2 {
		s.Put(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	atomics := func(op func()) int64 {
		before := metrics.Default.Get(metrics.Atomic)
		op()
		return metrics.Default.Get(metrics.Atomic) - before
	}
	cases := []struct {
		name string
		op   func()
		want int64
	}{
		{"get hit", func() { s.Get("k20") }, 27},
		{"get miss", func() { s.Get("k21") }, 27},
		{"put insert", func() { s.Put("k21", []byte("v")) }, 29}, // height 2
		{"put update", func() { s.Put("k20", []byte("w")) }, 27},
		{"delete", func() { s.Delete("k40") }, 31},
		{"delete miss", func() { s.Delete("k41") }, 31},
		{"range stops early", func() {
			seen := 0
			s.Range("k10", "k50", func(string, []byte) bool {
				seen++
				return seen < 3
			})
		}, 35},
		{"range to end", func() { s.Range("k50", "k99", func(string, []byte) bool { return true }) }, 50},
	}
	for _, c := range cases {
		if got := atomics(c.op); got != c.want {
			t.Errorf("%s: atomic delta = %d, want %d", c.name, got, c.want)
		}
	}
}

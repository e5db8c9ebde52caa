package rdd

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// refMap/refFilter/refFlatMap are the unfused seed semantics: one full
// intermediate slice per stage, evaluated sequentially. The fused engine
// must be element-for-element identical to chains of these.
func refMap[T, U any](in []T, fn func(T) U) []U {
	out := make([]U, len(in))
	for i, x := range in {
		out[i] = fn(x)
	}
	return out
}

func refFilter[T any](in []T, pred func(T) bool) []T {
	out := make([]T, 0, len(in))
	for _, x := range in {
		if pred(x) {
			out = append(out, x)
		}
	}
	return out
}

func refFlatMap[T, U any](in []T, fn func(T) []U) []U {
	var out []U
	for _, x := range in {
		out = append(out, fn(x)...)
	}
	return out
}

// TestPropertyFusedMatchesSequential checks that an arbitrary narrow
// chain over arbitrary data and partitioning — optionally with a Cache()
// inserted mid-chain — produces exactly the seed's per-stage-slice
// results, in order.
func TestPropertyFusedMatchesSequential(t *testing.T) {
	double := func(x int) int { return x*3 + 1 }
	odd := func(x int) bool { return x%2 != 0 }
	mirror := func(x int) []int { return []int{x, -x} }
	dec := func(x int) int { return x - 1 }

	f := func(raw []int16, parts uint8, cachePos uint8) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		p := int(parts%10) + 1

		r := Parallelize(data, p)
		s1 := Map(r, double)
		if cachePos%3 == 0 {
			s1.Cache()
		}
		s2 := s1.Filter(odd)
		s3 := flatMap(s2, mirror)
		if cachePos%3 == 1 {
			s3.Cache()
		}
		s4 := Map(s3, dec)

		want := refMap(refFlatMap(refFilter(refMap(data, double), odd), mirror), dec)
		got := collect(s4)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Count must agree with collect, and a second collect (replaying
		// the pipeline, or reading the cache) must be identical.
		if s4.Count() != len(want) {
			return false
		}
		return reflect.DeepEqual(collect(s4), got) || len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFusedCacheComputesOnceMidChain verifies the Cache() interaction:
// a cache in the middle of a fused chain is a fusion barrier that
// evaluates its upstream exactly once, while downstream stages replay
// from the memoized slices.
func TestFusedCacheComputesOnceMidChain(t *testing.T) {
	var upstream atomic.Int64
	base := Parallelize(ints(100), 4)
	counted := Map(base, func(x int) int {
		upstream.Add(1)
		return x * 2
	}).Cache()
	tail := Map(counted.Filter(func(x int) bool { return x%4 == 0 }), func(x int) int { return x + 1 })

	first := collect(tail)
	if got := upstream.Load(); got != 100 {
		t.Fatalf("first action computed %d upstream elements, want 100", got)
	}
	_ = collect(tail)
	_ = tail.Count()
	if got := upstream.Load(); got != 100 {
		t.Errorf("cached upstream recomputed: %d evaluations after three actions", got)
	}
	want := refMap(refFilter(refMap(ints(100), func(x int) int { return x * 2 }),
		func(x int) bool { return x%4 == 0 }), func(x int) int { return x + 1 })
	if !reflect.DeepEqual(first, want) {
		t.Errorf("cached chain mismatch: got %v", first[:min(len(first), 10)])
	}
}

// TestFusedEmptyPartitions drives fused chains whose partitions go empty
// (filter-all, empty source) through every action.
func TestFusedEmptyPartitions(t *testing.T) {
	empty := Parallelize([]int{}, 4)
	if empty.numPartitions != 1 {
		t.Errorf("empty dataset partitions = %d, want 1", empty.numPartitions)
	}
	chain := flatMap(Map(empty, func(x int) int { return x }).Filter(func(int) bool { return true }),
		func(x int) []int { return []int{x} })
	if got := collect(chain); len(got) != 0 {
		t.Errorf("empty chain collect = %v", got)
	}
	if got := chain.Count(); got != 0 {
		t.Errorf("empty chain Count = %d", got)
	}

	// Non-empty source whose filter drops everything: downstream stages
	// see empty partitions but the pipeline still runs.
	none := Parallelize(ints(50), 7).Filter(func(int) bool { return false })
	if got := Map(none, func(x int) int { return x }).Count(); got != 0 {
		t.Errorf("filtered-out Count = %d", got)
	}
	agg := Aggregate(none, func() int { return 0 },
		func(a, x int) int { return a + x }, func(a, b int) int { return a + b })
	if agg != 0 {
		t.Errorf("filtered-out Aggregate = %d", agg)
	}
}

// TestPartitionClampRule pins the engine-wide partition-count rule
// (clampPartitions): Parallelize caps at len(data), wide transformations
// cap at shuffleLimit, results stay correct after clamping.
func TestPartitionClampRule(t *testing.T) {
	if got := Parallelize(ints(3), 100).numPartitions; got != 3 {
		t.Errorf("Parallelize clamp = %d, want 3", got)
	}
	if got := Parallelize(ints(100), 0).numPartitions; got != defaultPartitions {
		t.Errorf("Parallelize default = %d", got)
	}

	pairs := Map(Parallelize(ints(60), 4), func(x int) Pair[int, int] { return KV(x%9, 1) })
	huge := ReduceByKey(pairs, 1<<20, func(a, b int) int { return a + b })
	if limit := shuffleLimit(4); huge.numPartitions > limit {
		t.Errorf("ReduceByKey partitions = %d, above limit %d", huge.numPartitions, limit)
	}
	counts := collectAsMap(huge)
	for k := 0; k < 9; k++ {
		want := 60 / 9
		if k < 60%9 {
			want++
		}
		if counts[k] != want {
			t.Errorf("clamped ReduceByKey[%d] = %d, want %d", k, counts[k], want)
		}
	}
	if got := groupByKey(pairs, -7).numPartitions; got != 4 {
		t.Errorf("groupByKey(-7) partitions = %d, want parent 4", got)
	}
}

// pointKey is a struct key of the kind the seed hashKey degenerated on
// (its default branch mixed one constant byte, landing every struct key
// in a single bucket).
type pointKey struct {
	X, Y float64
	Tag  uint8
}

// TestHashKeyStructKeyDistribution is the regression test for the
// hashKey fallback: struct keys must spread roughly evenly.
func TestHashKeyStructKeyDistribution(t *testing.T) {
	const n, buckets = 8000, 8
	hist := make([]int, buckets)
	for i := 0; i < n; i++ {
		k := pointKey{X: float64(i), Y: float64(i % 97), Tag: uint8(i)}
		hist[hashKey(k, buckets)]++
	}
	for b, c := range hist {
		if c < n/buckets/2 || c > n/buckets*3/2 {
			t.Errorf("struct-key bucket %d has %d of %d keys; poor distribution %v", b, c, n, hist)
		}
	}
	// Float keys too (previously also constant-byte hashed).
	histF := make([]int, buckets)
	for i := 0; i < n; i++ {
		histF[hashKey(float64(i)*1.7, buckets)]++
	}
	for b, c := range histF {
		if c < n/buckets/2 || c > n/buckets*3/2 {
			t.Errorf("float-key bucket %d has %d of %d keys: %v", b, c, n, histF)
		}
	}
	if hashKey(pointKey{1, 2, 3}, 16) != hashKey(pointKey{1, 2, 3}, 16) {
		t.Error("struct hash not deterministic in-process")
	}
}

// TestStructKeyedShuffleSpreadsBuckets checks end to end that a shuffle
// over struct keys actually distributes across output partitions instead
// of collapsing into one, and aggregates correctly.
func TestStructKeyedShuffleSpreadsBuckets(t *testing.T) {
	const keys = 64
	var data []Pair[pointKey, int]
	for i := 0; i < 1024; i++ {
		k := pointKey{X: float64(i % keys), Y: float64((i % keys) * 2)}
		data = append(data, KV(k, 1))
	}
	r := Parallelize(data, 8)
	buckets := shuffle(r, 8)
	nonEmpty := 0
	for _, b := range buckets {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 6 {
		t.Errorf("struct-keyed shuffle used %d of 8 buckets; keys collapsed", nonEmpty)
	}
	counts := collectAsMap(ReduceByKey(r, 8, func(a, b int) int { return a + b }))
	if len(counts) != keys {
		t.Fatalf("distinct keys = %d, want %d", len(counts), keys)
	}
	for k, c := range counts {
		if c != 1024/keys {
			t.Errorf("key %v count = %d, want %d", k, c, 1024/keys)
		}
	}
}

// TestShuffleExchangeRace runs overlapping shuffles (shared staging-row
// pool, shared executor) from concurrent goroutines; run under -race by
// make stress.
func TestShuffleExchangeRace(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				n := 200 + 50*g + iter
				pairs := Map(Parallelize(ints(n), 5), func(x int) Pair[string, int] {
					return KV(words[x%len(words)], 1)
				})
				counts := collectAsMap(ReduceByKey(pairs, 4, func(a, b int) int { return a + b }))
				total := 0
				for _, c := range counts {
					total += c
				}
				if total != n {
					t.Errorf("goroutine %d iter %d: shuffled total = %d, want %d", g, iter, total, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFusedActionsRace overlaps fused-pipeline actions (collect, Count,
// Aggregate) including cached datasets across goroutines; run under
// -race by make stress.
func TestFusedActionsRace(t *testing.T) {
	shared := Map(Parallelize(ints(500), 8), func(x int) int { return x * 2 }).Cache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				if got := shared.Count(); got != 500 {
					t.Errorf("Count = %d", got)
					return
				}
				sum := Aggregate(shared, func() int { return 0 },
					func(a, x int) int { return a + x }, func(a, b int) int { return a + b })
				if sum != 500*499 {
					t.Errorf("Aggregate = %d, want %d", sum, 500*499)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShuffledRDDSortedCollect double-checks shuffled iterate semantics:
// collecting a ReduceByKey result twice yields the same multiset.
func TestShuffledRDDSortedCollect(t *testing.T) {
	pairs := Map(Parallelize(ints(97), 6), func(x int) Pair[int, int] { return KV(x%13, x) })
	r := ReduceByKey(pairs, 0, func(a, b int) int { return a + b })
	norm := func(kvs []Pair[int, int]) []Pair[int, int] {
		out := append([]Pair[int, int](nil), kvs...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	a, b := norm(collect(r)), norm(collect(r))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated collect of shuffled RDD differs: %v vs %v", a, b)
	}
	if len(a) != 13 {
		t.Errorf("distinct keys = %d, want 13", len(a))
	}
}

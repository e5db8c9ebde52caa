package streams

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"renaissance/internal/metrics"
)

// pipeOp is one random pipeline stage: Kind picks Filter, Map or FlatMap,
// Arg parameterises it.
type pipeOp struct{ Kind, Arg uint8 }

// innerElems are the elements FlatMap expands x into: between zero and
// three of them.
func innerElems(x int) []int {
	n := x % 4
	if n < 0 {
		n = -n
	}
	out := make([]int, n)
	for i := range out {
		out[i] = x + i
	}
	return out
}

// innerStream builds innerElems(x) as one of the stream shapes FlatMap
// meets: slice-backed (FromSlice, Of), push-backed (Map over Range, Filter)
// and the zero Stream.
func innerStream(x int, arg uint8) Stream[int] {
	xs := innerElems(x)
	switch arg % 5 {
	case 0:
		return FromSlice(xs)
	case 1:
		return Of(xs...)
	case 2:
		return Map(Range(0, len(xs)), func(i int) int { return x + i })
	case 3:
		return FromSlice(xs).Filter(func(int) bool { return true })
	}
	if len(xs) == 0 {
		return Stream[int]{}
	}
	return FromSlice(xs)
}

func keep(x int, arg uint8) bool { return x%(int(arg%3)+2) != 0 }

func scale(x int, arg uint8) int { return x*(int(arg%5)+1) - int(arg%7) }

// buildPipeline applies ops to src through the library.
func buildPipeline(src Stream[int], ops []pipeOp) Stream[int] {
	for _, op := range ops {
		arg := op.Arg
		switch op.Kind % 3 {
		case 0:
			src = src.Filter(func(x int) bool { return keep(x, arg) })
		case 1:
			src = Map(src, func(x int) int { return scale(x, arg) })
		case 2:
			src = FlatMap(src, func(x int) Stream[int] { return innerStream(x, arg) })
		}
	}
	return src
}

// referencePipeline applies ops to xs with plain loops.
func referencePipeline(xs []int, ops []pipeOp) []int {
	for _, op := range ops {
		var next []int
		for _, x := range xs {
			switch op.Kind % 3 {
			case 0:
				if keep(x, op.Arg) {
					next = append(next, x)
				}
			case 1:
				next = append(next, scale(x, op.Arg))
			case 2:
				next = append(next, innerElems(x)...)
			}
		}
		xs = next
	}
	return xs
}

// takeUntil consumes s with a consumer that stops after k elements and
// returns what it saw and forEach's report.
func takeUntil(s Stream[int], k int) ([]int, bool) {
	var got []int
	ran := s.forEach(func(x int) bool {
		got = append(got, x)
		return len(got) < k
	})
	return got, ran
}

// Property: a random Filter/Map/FlatMap pipeline gives, through every
// terminal, what the same stages give as plain loops — including a
// consumer stopping early, a zero-value source and a second consumption of
// the same slice-backed pipeline.
func TestDifferentialPipelines(t *testing.T) {
	f := func(raw []int8, ops []pipeOp, zeroSrc bool, stop uint16) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		src := FromSlice(xs)
		if zeroSrc {
			src, xs = Stream[int]{}, nil
		}
		s := buildPipeline(src, ops)
		want := referencePipeline(xs, ops)

		if got := s.ToSlice(); !slices.Equal(got, want) {
			t.Logf("ToSlice = %v, want %v (ops %v)", got, want, ops)
			return false
		}
		if got := s.ToSlice(); !slices.Equal(got, want) {
			t.Logf("second ToSlice = %v, want %v", got, want)
			return false
		}
		if got := s.Count(); got != len(want) {
			t.Logf("Count = %d, want %d", got, len(want))
			return false
		}
		sum := 0
		for _, x := range want {
			sum += x
		}
		if got := Reduce(s, 0, func(a, x int) int { return a + x }); got != sum {
			t.Logf("Reduce = %d, want %d", got, sum)
			return false
		}
		counts := map[int]int{}
		for _, x := range want {
			counts[x%5]++
		}
		if got := CountBy(s, func(x int) int { return x % 5 }); !maps.Equal(got, counts) {
			t.Logf("CountBy = %v, want %v", got, counts)
			return false
		}
		k := int(stop)%(len(want)+2) + 1
		got, ran := takeUntil(s, k)
		if k <= len(want) {
			if ran || !slices.Equal(got, want[:k]) {
				t.Logf("stop at %d: got %v ran=%v, want %v ran=false", k, got, ran, want[:k])
				return false
			}
		} else if !ran || !slices.Equal(got, want) {
			t.Logf("no stop (k=%d): got %v ran=%v, want %v ran=true", k, got, ran, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A consumer stopping at any position stops the whole pipeline, at every
// FlatMap nesting depth, whether the stop lands in a slice-backed or a
// push-backed inner stream.
func TestDifferentialEarlyStopEveryDepth(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		s := Of(0, 1)
		for d := 0; d < depth; d++ {
			if d%2 == 0 {
				s = FlatMap(s, func(x int) Stream[int] { return Of(2*x, 2*x+1) })
			} else {
				s = FlatMap(s, func(x int) Stream[int] {
					return Map(Range(0, 2), func(i int) int { return 2*x + i })
				})
			}
		}
		total := 2 << depth
		for k := 1; k <= total+1; k++ {
			got, ran := takeUntil(s, k)
			n := min(k, total)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(got, want) || ran != (k > total) {
				t.Errorf("depth %d, stop at %d: got %v ran=%v, want %v ran=%v",
					depth, k, got, ran, want, k > total)
			}
		}
	}
}

func TestDifferentialZeroStream(t *testing.T) {
	var z Stream[int]
	if z.Count() != 0 || z.ToSlice() != nil || len(CountBy(z, func(x int) int { return x })) != 0 {
		t.Error("zero Stream is not empty")
	}
	if !z.forEach(func(int) bool { return false }) {
		t.Error("zero Stream reported an early stop")
	}
	if got := FlatMap(Of(1, 2, 3), func(int) Stream[int] { return z }).Count(); got != 0 {
		t.Errorf("FlatMap over zero inner streams = %d elements", got)
	}
}

// The per-element path of a FlatMap over slice-backed inner streams
// allocates nothing in the library, and FromSlice allocates nothing at all.
func TestAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	inner := []int{1, 2, 3}
	expand := func(int) Stream[int] { return FromSlice(inner) }
	run := func(n int) float64 {
		outer := make([]int, n)
		return testing.AllocsPerRun(50, func() {
			if got := FlatMap(FromSlice(outer), expand).Count(); got != 3*n {
				t.Fatalf("Count = %d, want %d", got, 3*n)
			}
		})
	}
	if small, large := run(10), run(1000); large != small {
		t.Errorf("FlatMap allocates %v over 10 elements, %v over 1000: want no per-element allocation", small, large)
	}
	var sink Stream[int]
	if n := testing.AllocsPerRun(100, func() { sink = FromSlice(inner) }); n != 0 {
		t.Errorf("FromSlice allocates %v, want 0", n)
	}
	_ = sink

	// The slice terminals loop the slice themselves: Reduce allocates
	// nothing, and CountBy only what a plain loop into a new map does.
	xs := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	if n := testing.AllocsPerRun(100, func() {
		if got := Reduce(FromSlice(xs), 0, func(a, x int) int { return a + x }); got != 39 {
			t.Fatalf("Reduce = %d, want 39", got)
		}
	}); n != 0 {
		t.Errorf("Reduce over a slice allocates %v, want 0", n)
	}
	mod3 := func(x int) int { return x % 3 }
	plain := testing.AllocsPerRun(100, func() {
		m := make(map[int]int)
		for _, x := range xs {
			m[mod3(x)]++
		}
		mapSink = m // escapes, as CountBy's returned map does
	})
	if n := testing.AllocsPerRun(100, func() {
		if got := CountBy(FromSlice(xs), mod3); len(got) != 3 {
			t.Fatalf("CountBy counted %d keys", len(got))
		}
	}); n > plain {
		t.Errorf("CountBy over a slice allocates %v, a plain loop into a map %v", n, plain)
	}
}

var mapSink map[int]int

// Property: CountBy and Reduce over a slice give what they give over the
// same elements behind a pass-through Filter, and count the same idynamic
// dispatches once the filter's own, one per element, are taken off.
func TestDifferentialSliceTerminalsMatchPush(t *testing.T) {
	idynamic := func(fn func()) int64 {
		before := metrics.Default.Get(metrics.IDynamic)
		fn()
		return metrics.Default.Get(metrics.IDynamic) - before
	}
	f := func(raw []int8) bool {
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		slice := FromSlice(xs)
		push := slice.Filter(func(int) bool { return true })
		key := func(x int) int { return x % 7 }
		var gotSlice, gotPush map[int]int
		dSlice := idynamic(func() { gotSlice = CountBy(slice, key) })
		dPush := idynamic(func() { gotPush = CountBy(push, key) })
		if !maps.Equal(gotSlice, gotPush) || dSlice != dPush-int64(len(xs)) {
			t.Logf("CountBy: slice %v (%d dispatches), push %v (%d)", gotSlice, dSlice, gotPush, dPush)
			return false
		}
		sum := func(a, x int) int { return 3*a + x }
		var rSlice, rPush int
		dSlice = idynamic(func() { rSlice = Reduce(slice, 1, sum) })
		dPush = idynamic(func() { rPush = Reduce(push, 1, sum) })
		if rSlice != rPush || dSlice != dPush-int64(len(xs)) {
			t.Logf("Reduce: slice %d (%d dispatches), push %d (%d)", rSlice, dSlice, rPush, dPush)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

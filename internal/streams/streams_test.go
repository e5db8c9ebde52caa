package streams

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicPipeline(t *testing.T) {
	got := Map(Range(1, 11).Filter(func(x int) bool { return x%2 == 0 }),
		func(x int) int { return x * x }).ToSlice()
	want := []int{4, 16, 36, 64, 100}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline = %v, want %v", got, want)
	}
}

func TestOfAndFromSlice(t *testing.T) {
	if got := Of(1, 2, 3).Count(); got != 3 {
		t.Errorf("Of count = %d", got)
	}
	xs := []string{"a", "b"}
	if got := FromSlice(xs).ToSlice(); !reflect.DeepEqual(got, xs) {
		t.Errorf("FromSlice = %v", got)
	}
	// Streams over slices are reusable.
	s := FromSlice(xs)
	if s.Count() != 2 || s.Count() != 2 {
		t.Error("slice stream not reusable")
	}
}

func TestFlatMapLaziness(t *testing.T) {
	calls := 0
	s := FlatMap(Range(0, 1000), func(x int) Stream[int] {
		calls++
		return Of(x, x)
	})
	var got []int
	s.forEach(func(x int) bool {
		got = append(got, x)
		return len(got) < 4
	})
	if !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Errorf("FlatMap = %v", got)
	}
	if calls > 3 {
		t.Errorf("FlatMap evaluated %d inner streams; not lazy", calls)
	}
}

func TestReduce(t *testing.T) {
	sum := Reduce(Range(1, 101), 0, func(a, x int) int { return a + x })
	if sum != 5050 {
		t.Errorf("Reduce sum = %d", sum)
	}
	concat := Reduce(Of("a", "b", "c"), "", func(a, x string) string { return a + x })
	if concat != "abc" {
		t.Errorf("Reduce concat = %q", concat)
	}
}

func TestGroupBy(t *testing.T) {
	words := Of("apple", "avocado", "banana", "blueberry", "cherry")
	groups := GroupBy(words, func(s string) byte { return s[0] })
	if len(groups['a']) != 2 || len(groups['b']) != 2 || len(groups['c']) != 1 {
		t.Errorf("GroupBy = %v", groups)
	}
}

func TestWordHistogram(t *testing.T) {
	// The scrabble benchmark's core shape: histogram of characters.
	word := "benchmark"
	hist := GroupBy(FromSlice([]rune(word)), func(r rune) rune { return r })
	if len(hist['b']) != 1 || len(hist['e']) != 1 {
		t.Errorf("hist = %v", hist)
	}
	total := 0
	for _, g := range hist {
		total += len(g)
	}
	if total != len(word) {
		t.Errorf("histogram total = %d, want %d", total, len(word))
	}
}

func TestParMap(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	got := ParMap(xs, 4, func(x int) int { return x * 2 })
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("ParMap[%d] = %d, want %d", i, v, i*2)
		}
	}
	if got := ParMap([]int{}, 4, func(x int) int { return x }); len(got) != 0 {
		t.Errorf("ParMap empty = %v", got)
	}
}

// Property: ParMap equals sequential Map for arbitrary inputs and worker
// counts.
func TestPropertyParMapMatchesMap(t *testing.T) {
	f := func(xs []int16, w uint8) bool {
		workers := int(w%8) + 1
		fn := func(x int16) int { return int(x) * 3 }
		par := ParMap(xs, workers, fn)
		seq := Map(FromSlice(xs), fn).ToSlice()
		if len(par) != len(seq) {
			return false
		}
		for i := range par {
			if par[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GroupBy preserves all elements.
func TestPropertyGroupByPartition(t *testing.T) {
	f := func(words []string) bool {
		groups := GroupBy(FromSlice(words), func(s string) int { return len(s) })
		total := 0
		for l, g := range groups {
			total += len(g)
			for _, w := range g {
				if len(w) != l {
					return false
				}
			}
		}
		return total == len(words)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMnemonicsShape(t *testing.T) {
	// The streams-mnemonics core: expanding digit strings through
	// letter alternatives with FlatMap.
	digitLetters := map[rune]string{'2': "ABC", '3': "DEF"}
	expand := func(s Stream[string], digit rune) Stream[string] {
		return FlatMap(s, func(prefix string) Stream[string] {
			letters := digitLetters[digit]
			out := make([]string, 0, len(letters))
			for _, l := range letters {
				out = append(out, prefix+string(l))
			}
			return FromSlice(out)
		})
	}
	s := Of("")
	for _, d := range "23" {
		s = expand(s, d)
	}
	got := s.ToSlice()
	if len(got) != 9 {
		t.Fatalf("mnemonics count = %d, want 9", len(got))
	}
	sort.Strings(got)
	if got[0] != "AD" || !strings.HasPrefix(got[8], "C") {
		t.Errorf("mnemonics = %v", got)
	}
}

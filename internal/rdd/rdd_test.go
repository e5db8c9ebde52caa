package rdd

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// collectE is the tests' collecting action: every partition evaluated
// through runParts, the recovery path Count and Aggregate run on, and
// concatenated in partition order; a persistent failure is returned.
func collectE[T any](r *RDD[T]) ([]T, error) {
	parts, err := runParts(r.numPartitions, func(p int) []T {
		if r.cache != nil {
			return r.cachedPartition(p)
		}
		return r.materialize(p)
	}, nil)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// collect is collectE under the package's failure contract: a persistent
// failure re-panics as a *forkjoin.TaskError.
func collect[T any](r *RDD[T]) []T {
	out, err := collectE(r)
	if err != nil {
		panic(err)
	}
	return out
}

// collectAsMap collects a pair dataset into a map (later keys overwrite).
func collectAsMap[K comparable, V any](r *RDD[Pair[K, V]]) map[K]V {
	out := make(map[K]V)
	for _, kv := range collect(r) {
		out[kv.Key] = kv.Value
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	r := Parallelize(ints(100), 8)
	if r.numPartitions != 8 {
		t.Errorf("partitions = %d", r.numPartitions)
	}
	got := collect(r)
	if !reflect.DeepEqual(got, ints(100)) {
		t.Errorf("collect mismatch")
	}
	if r.Count() != 100 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	empty := Parallelize([]int{}, 4)
	if empty.Count() != 0 {
		t.Errorf("empty count = %d", empty.Count())
	}
	small := Parallelize([]int{1, 2}, 16)
	if small.numPartitions > 2 {
		t.Errorf("small dataset got %d partitions", small.numPartitions)
	}
	if got := collect(small); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("small collect = %v", got)
	}
	defaulted := Parallelize(ints(100), 0)
	if defaulted.numPartitions != 8 {
		t.Errorf("default partitions = %d", defaulted.numPartitions)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	r := Parallelize(ints(10), 3)
	doubled := collect(Map(r, func(x int) int { return x * 2 }))
	for i, v := range doubled {
		if v != i*2 {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
	evens := r.Filter(func(x int) bool { return x%2 == 0 }).Count()
	if evens != 5 {
		t.Errorf("evens = %d", evens)
	}
	fm := flatMap(r, func(x int) []int { return []int{x, x} }).Count()
	if fm != 20 {
		t.Errorf("flatMap count = %d", fm)
	}
}

func TestAggregate(t *testing.T) {
	r := Parallelize(ints(101), 7)
	agg := Aggregate(r,
		func() int { return 0 },
		func(a, x int) int { return a + x },
		func(a, b int) int { return a + b })
	if agg != 5050 {
		t.Errorf("Aggregate = %d", agg)
	}
}

func TestCacheComputesOnce(t *testing.T) {
	var computations atomic.Int64
	base := Parallelize(ints(10), 2)
	counted := Map(base, func(x int) int {
		computations.Add(1)
		return x
	}).Cache()
	_ = collect(counted)
	first := computations.Load()
	_ = collect(counted)
	_ = counted.Count()
	if computations.Load() != first {
		t.Errorf("cached RDD recomputed: %d -> %d", first, computations.Load())
	}
	if first != 10 {
		t.Errorf("first pass computed %d elements", first)
	}
}

func TestReduceByKey(t *testing.T) {
	words := []string{"a", "b", "a", "c", "b", "a"}
	pairs := Map(Parallelize(words, 3), func(w string) Pair[string, int] { return KV(w, 1) })
	counts := collectAsMap(ReduceByKey(pairs, 4, func(a, b int) int { return a + b }))
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v", counts)
	}
}

func TestGroupByKey(t *testing.T) {
	pairs := Parallelize([]Pair[int, string]{
		KV(1, "x"), KV(2, "y"), KV(1, "z"),
	}, 2)
	groups := collectAsMap(groupByKey(pairs, 3))
	if len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Errorf("groups = %v", groups)
	}
}

// Property: word count via ReduceByKey matches a sequential map count.
func TestPropertyWordCount(t *testing.T) {
	f := func(raw []uint8, parts uint8) bool {
		words := make([]string, len(raw))
		for i, b := range raw {
			words[i] = string(rune('a' + int(b)%5))
		}
		p := int(parts%6) + 1
		pairs := Map(Parallelize(words, p), func(w string) Pair[string, int] { return KV(w, 1) })
		got := collectAsMap(ReduceByKey(pairs, p, func(a, b int) int { return a + b }))
		want := map[string]int{}
		for _, w := range words {
			want[w]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	// Linearly separable data: x > 0 => label 1.
	rng := rand.New(rand.NewSource(1))
	var points []LabeledPoint
	for i := 0; i < 400; i++ {
		x := rng.Float64()*2 - 1
		label := 0
		if x > 0 {
			label = 1
		}
		points = append(points, LabeledPoint{Features: []float64{x, 1}, Label: label})
	}
	w, err := LogisticRegression(pointsOf(points), 200, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, p := range points {
		pred := 0
		if PredictLogistic(w, p.Features) > 0.5 {
			pred = 1
		}
		if pred == p.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(points)); acc < 0.95 {
		t.Errorf("accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestNaiveBayes(t *testing.T) {
	// Class 0 heavy on feature 0, class 1 heavy on feature 1.
	var points []LabeledPoint
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		label := i % 2
		f := make([]float64, 2)
		f[label] = float64(5 + rng.Intn(5))
		f[1-label] = float64(rng.Intn(2))
		points = append(points, LabeledPoint{Features: f, Label: label})
	}
	counts := countsOf(points)
	m, err := NaiveBayes(counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(counts.Labels, func(i int) int { return m.Predict(counts.Row(i)) })
	if err != nil || acc < 0.95 {
		t.Errorf("accuracy = %.2f, %v", acc, err)
	}
	if _, err := NaiveBayes(NewCounts(0, 2), 2); err == nil {
		t.Error("empty NaiveBayes should error")
	}
}

func TestChiSquare(t *testing.T) {
	// Feature 0 is perfectly predictive; feature 1 is uniform noise.
	var points []LabeledPoint
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		label := i % 2
		points = append(points, LabeledPoint{
			Features: []float64{float64(label), float64(rng.Intn(2))},
			Label:    label,
		})
	}
	stats, err := ChiSquare(countsOf(points), 2, 2)
	if err != nil || len(stats) != 2 {
		t.Fatalf("stats = %v, %v", stats, err)
	}
	if stats[0] <= stats[1] {
		t.Errorf("predictive feature chi2 %.1f <= noise chi2 %.1f", stats[0], stats[1])
	}
	if stats[0] < 100 {
		t.Errorf("predictive chi2 = %.1f, suspiciously small", stats[0])
	}
}

func TestDecisionTree(t *testing.T) {
	// XOR-ish 2D data solvable with depth-3 axis-aligned splits.
	var points []LabeledPoint
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64(), rng.Float64()
		label := 0
		if (x > 0.5) != (y > 0.5) {
			label = 1
		}
		points = append(points, LabeledPoint{Features: []float64{x, y}, Label: label})
	}
	tree, err := DecisionTree(pointsOf(points), 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.IsLeaf() {
		t.Error("tree is a single leaf, expected actual splits")
	}
	correct := 0
	for _, p := range points {
		if tree.Predict(p.Features) == p.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(points)); acc < 0.9 {
		t.Errorf("accuracy = %.2f", acc)
	}

	// The histograms index by label, so a label at or above numClasses is
	// rejected up front instead of landing in a neighbouring bin's cell.
	for _, bad := range []uint8{2, 255} {
		pts := pointsOf(points)
		pts.Labels[7] = bad
		if tree, err := DecisionTree(pts, 2, 4, 1); err == nil || tree != nil {
			t.Errorf("label %d: DecisionTree = (%v, %v), want an error and no tree", bad, tree, err)
		}
	}
}

// A NaN or an infinity has no histogram bin: the root pass rejects a
// non-finite feature, naming the point and the feature, instead of
// binning it into bin 0 and returning a tree.
func TestDecisionTreeRejectsNonFiniteFeatures(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		pts := NewPoints(64, 3)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 64; i++ {
			row := pts.X.Row(i)
			for f := range row {
				row[f] = rng.Float64()
			}
			pts.Labels[i] = uint8(i % 2)
		}
		pts.X.Row(41)[2] = bad
		tree, err := DecisionTree(pts, 2, 4, 1)
		if err == nil || tree != nil {
			t.Errorf("feature %v: DecisionTree = (%v, %v), want an error and no tree", bad, tree, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "point 41") || !strings.Contains(msg, "feature 2") {
			t.Errorf("feature %v: error %q does not name point 41 and feature 2", bad, msg)
		}
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	points := []LabeledPoint{
		{Features: []float64{1}, Label: 1},
		{Features: []float64{2}, Label: 1},
	}
	tree, err := DecisionTree(pointsOf(points), 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.IsLeaf() || tree.Prediction != 1 {
		t.Errorf("pure data should give a leaf predicting 1; got %+v", tree)
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solveLinearSystem(a, b)
	if !ok {
		t.Fatal("singular?")
	}
	// 2x + y = 5; x + 3y = 10 => x = 1, y = 3.
	if len(x) != 2 || abs(x[0]-1) > 1e-9 || abs(x[1]-3) > 1e-9 {
		t.Errorf("solution = %v", x)
	}
	// Singular system.
	if _, ok := solveLinearSystem([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Error("singular system solved")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestALSReconstructsRatings(t *testing.T) {
	// Generate ratings from a true low-rank model and check ALS recovers
	// low RMSE.
	rng := rand.New(rand.NewSource(5))
	const users, items, rank = 20, 15, 3
	trueU := make([][]float64, users)
	trueI := make([][]float64, items)
	for u := range trueU {
		trueU[u] = randomVector(rng, rank)
	}
	for i := range trueI {
		trueI[i] = randomVector(rng, rank)
	}
	var ratings []Rating
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.6 {
				dot := 0.0
				for k := 0; k < rank; k++ {
					dot += trueU[u][k] * trueI[i][k]
				}
				ratings = append(ratings, Rating{u, i, dot})
			}
		}
	}
	g := NewRatingsGraph(ratings)
	model, err := ALSTrain(g, rank, 12, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := g.RMSE(model); rmse > 0.1 {
		t.Errorf("RMSE = %.4f, want <= 0.1", rmse)
	}
	if _, err := ALSTrain(NewRatingsGraph(nil), 2, 1, 0.1, 1); err == nil {
		t.Error("empty ALS should error")
	}
}

func TestALSRecommend(t *testing.T) {
	ratings := []Rating{
		{0, 0, 5}, {0, 1, 5}, {1, 0, 5}, {1, 1, 5}, {1, 2, 5}, {2, 2, 1},
	}
	model, err := ALSTrain(NewRatingsGraph(ratings), 2, 10, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := model.Recommend(0, map[int]bool{0: true, 1: true}, 5)
	if len(recs) != 1 || recs[0] != 2 {
		t.Errorf("recs = %v, want [2]", recs)
	}
	// A user without a row scores every item 0: the ties go to the lower ids.
	if recs := model.Recommend(9, nil, 2); !reflect.DeepEqual(recs, []int{0, 1}) {
		t.Errorf("recs for an unknown user = %v, want [0 1]", recs)
	}
}

// TestIDsAreRows: the graphs take an id as its row. An id that no edge or
// rating names gets an isolated row, and an id no int32 row can hold
// panics with a message that names it.
func TestIDsAreRows(t *testing.T) {
	g := NewGraph([]Pair[int, int]{KV(0, 3), KV(3, 0)})
	if g.NumVertices() != 4 || !reflect.DeepEqual(g.dangling, []int32{1, 2}) {
		t.Errorf("edges 0⇄3: %d vertices, dangling %v, want 4 and [1 2]", g.NumVertices(), g.dangling)
	}
	rg := NewRatingsGraph([]Rating{{User: 2, Item: 5, Value: 1}})
	if rg.NumUsers() != 3 || rg.NumItems() != 6 || rg.NumRatings() != 1 {
		t.Errorf("one rating (2, 5): %d users, %d items, %d ratings, want 3, 6 and 1",
			rg.NumUsers(), rg.NumItems(), rg.NumRatings())
	}
	for _, c := range []struct {
		name, want string
		build      func()
	}{
		{"negative source", "vertex id -3", func() { NewGraph([]Pair[int, int]{KV(0, 1), KV(-3, 1)}) }},
		{"negative destination", "vertex id -1", func() { NewGraph([]Pair[int, int]{KV(0, -1)}) }},
		{"source past int32", "vertex id 2147483647", func() { NewGraph([]Pair[int, int]{KV(math.MaxInt32, 0)}) }},
		{"negative user", "user id -7", func() { NewRatingsGraph([]Rating{{User: -7, Item: 0}}) }},
		{"item past int32", "item id 2147483648", func() { NewRatingsGraph([]Rating{{User: 0, Item: math.MaxInt32 + 1}}) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s: panicked with %q, want a message naming %q", c.name, msg, c.want)
				}
			}()
			c.build()
		}()
	}
}

func TestPageRank(t *testing.T) {
	// Star graph: everyone links to vertex 0, which links to 1.
	edges := []Pair[int, int]{
		KV(1, 0), KV(2, 0), KV(3, 0), KV(4, 0), KV(0, 1),
	}
	ranks := pageRank(t, edges, 20, 0.85)
	if len(ranks) != 5 {
		t.Fatalf("ranks = %v", ranks)
	}
	if ranks[0] <= ranks[2] || ranks[0] <= ranks[3] {
		t.Errorf("hub rank %0.3f not dominant: %v", ranks[0], ranks)
	}
	if ranks[1] <= ranks[2] {
		t.Errorf("vertex 1 (linked by hub) should outrank leaves: %v", ranks)
	}
}

func TestPageRankSumConservation(t *testing.T) {
	// On a graph where every vertex has out-links, total rank stays near N.
	var edges []Pair[int, int]
	const n = 10
	for i := 0; i < n; i++ {
		edges = append(edges, KV(i, (i+1)%n), KV(i, (i+3)%n))
	}
	ranks := pageRank(t, edges, 30, 0.85)
	total := 0.0
	for _, r := range ranks {
		total += r
	}
	if abs(total-float64(n)) > 0.01 {
		t.Errorf("total rank = %.4f, want ~%d", total, n)
	}
}

func TestHashKeyDistribution(t *testing.T) {
	buckets := make([]int, 8)
	for i := 0; i < 8000; i++ {
		buckets[hashKey(i, 8)]++
	}
	for b, n := range buckets {
		if n < 500 || n > 1500 {
			t.Errorf("bucket %d has %d of 8000 keys; poor distribution", b, n)
		}
	}
	// Strings and int64 hash without panic and deterministically.
	if hashKey("hello", 16) != hashKey("hello", 16) {
		t.Error("string hash not deterministic")
	}
	if hashKey(int64(42), 4) != hashKey(int64(42), 4) {
		t.Error("int64 hash not deterministic")
	}
	sort.Ints(buckets)
}

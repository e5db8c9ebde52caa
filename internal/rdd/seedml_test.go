package rdd

// The seed ML kernels, kept verbatim as the oracle of
// ml_differential_test.go: the replaced algorithm survives in the test
// binary so the comparison outlives future edits to the live path. These
// are the map-keyed, pointer-chasing implementations that internal/lin's
// flat layout replaced: map[int][]float64 ALS factors re-grouped per
// call, per-iteration flatMap/ReduceByKey/collectAsMap PageRank,
// nested-slice aggregation tables. Only the names carry a seed prefix;
// the bodies are unchanged except where they call each other or the
// test-side collect, collectAsMap, groupByKey and flatMap.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// LabeledPoint is a feature vector with a class label: the element type
// of the seed kernels, which trained on an RDD of them.
type LabeledPoint struct {
	Features []float64
	Label    int
}

// pointsOf packs seed-layout points into the flat training set the live
// kernels read. Every point must have as many features as the first.
func pointsOf(pts []LabeledPoint) *Points {
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0].Features)
	}
	out := NewPoints(len(pts), dim)
	for i, p := range pts {
		if len(p.Features) != dim {
			panic("pointsOf: ragged feature vectors")
		}
		copy(out.X.Row(i), p.Features)
		out.Labels[i] = uint8(p.Label)
	}
	return out
}

// countsOf packs seed-layout points into the byte-coded training set of
// ChiSquare and NaiveBayes. Every feature must be an integer in 0–255 (the
// conversion is exact, so the live kernels see the seed's values), and
// every point must have as many features as the first.
func countsOf(pts []LabeledPoint) *Counts {
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0].Features)
	}
	out := NewCounts(len(pts), dim)
	for i, p := range pts {
		if len(p.Features) != dim {
			panic("countsOf: ragged feature vectors")
		}
		row := out.Row(i)
		for j, v := range p.Features {
			if v != math.Trunc(v) || v < 0 || v > 255 {
				panic(fmt.Sprintf("countsOf: feature %v is not an integer in 0–255", v))
			}
			row[j] = uint8(v)
		}
		out.Labels[i] = uint8(p.Label)
	}
	return out
}

// seedALSModel holds the fitted latent factors (seed layout).
type seedALSModel struct {
	Rank        int
	UserFactors map[int][]float64
	ItemFactors map[int][]float64
}

// seedALS is the seed ALS kernel: the ratings are re-grouped with
// groupByKey+collectAsMap on every call, factors are map-keyed slices
// initialized in map-iteration order, and each normal-equation system is
// solved with pivoted Gaussian elimination.
func seedALS(ratings *RDD[Rating], rank, iterations int, lambda float64, seed int64) (*seedALSModel, error) {
	all := collect(ratings)
	if len(all) == 0 {
		return nil, ErrEmpty
	}
	ratings.Cache()

	byUser := groupByKey(Map(ratings, func(r Rating) Pair[int, Rating] {
		return KV(r.User, r)
	}), 0)
	byItem := groupByKey(Map(ratings, func(r Rating) Pair[int, Rating] {
		return KV(r.Item, r)
	}), 0)
	userRatings := collectAsMap(byUser)
	itemRatings := collectAsMap(byItem)

	rng := rand.New(rand.NewSource(seed))
	model := &seedALSModel{
		Rank:        rank,
		UserFactors: make(map[int][]float64, len(userRatings)),
		ItemFactors: make(map[int][]float64, len(itemRatings)),
	}
	for u := range userRatings {
		model.UserFactors[u] = randomVector(rng, rank)
	}
	for i := range itemRatings {
		model.ItemFactors[i] = randomVector(rng, rank)
	}

	for it := 0; it < iterations; it++ {
		seedSolveSide(userRatings, model.UserFactors, model.ItemFactors, rank, lambda,
			func(r Rating) int { return r.Item })
		seedSolveSide(itemRatings, model.ItemFactors, model.UserFactors, rank, lambda,
			func(r Rating) int { return r.User })
	}
	return model, nil
}

// seedSolveSide updates every factor vector on one side of the bipartite
// rating graph, in parallel (seed algorithm).
func seedSolveSide(ratingsOf map[int][]Rating, target, other map[int][]float64,
	rank int, lambda float64, counterpart func(Rating) int) {

	ids := make([]int, 0, len(ratingsOf))
	for id := range ratingsOf {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic iteration order
	factors := parMapSlice(ids, func(id int) []float64 {
		rs := ratingsOf[id]
		// Normal equations: (Y^T Y + λ n I) x = Y^T b.
		a := newMatrix(rank)
		b := make([]float64, rank)
		for _, r := range rs {
			y := other[counterpart(r)]
			for i := 0; i < rank; i++ {
				b[i] += r.Value * y[i]
				for j := 0; j < rank; j++ {
					a[i][j] += y[i] * y[j]
				}
			}
		}
		reg := lambda * float64(len(rs))
		for i := 0; i < rank; i++ {
			a[i][i] += reg
		}
		x, ok := solveLinearSystem(a, b)
		if !ok {
			return make([]float64, rank)
		}
		return x
	})
	for i, id := range ids {
		target[id] = factors[i]
	}
}

// seedPredict returns the seed model's rating estimate for (user, item).
func (m *seedALSModel) Predict(user, item int) float64 {
	u, okU := m.UserFactors[user]
	v, okI := m.ItemFactors[item]
	if !okU || !okI {
		return 0
	}
	dot := 0.0
	for i := range u {
		dot += u[i] * v[i]
	}
	return dot
}

// RMSE computes the root-mean-square error of the seed model.
func (m *seedALSModel) RMSE(ratings []Rating) float64 {
	if len(ratings) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratings {
		d := m.Predict(r.User, r.Item) - r.Value
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(ratings)))
}

// seedPageRank is the seed kernel: link groups re-derived by groupByKey,
// and every iteration runs a flatMap (one allocated pair per edge), a
// ReduceByKey shuffle, and a collectAsMap into a fresh rank map. Rank
// mass at dangling (sink) vertices is silently dropped — the bug the
// live kernel fixes by redistribution.
func seedPageRank(edges *RDD[Pair[int, int]], iterations int, damping float64) map[int]float64 {
	edges.Cache()
	links := groupByKey(edges, 0).Cache()

	// All vertices (sources and sinks).
	metrics.IncObject()
	vertices := make(map[int]bool)
	for _, e := range collect(edges) {
		vertices[e.Key] = true
		vertices[e.Value] = true
	}

	ranks := make(map[int]float64, len(vertices))
	for v := range vertices {
		ranks[v] = 1.0
	}

	for it := 0; it < iterations; it++ {
		// Contributions via flatMap over the link partitions.
		contribs := flatMap(links, func(kv Pair[int, []int]) []Pair[int, float64] {
			r := ranks[kv.Key]
			share := r / float64(len(kv.Value))
			metrics.IncArray()
			out := make([]Pair[int, float64], len(kv.Value))
			for i, dst := range kv.Value {
				out[i] = KV(dst, share)
			}
			return out
		})
		summed := collectAsMap(ReduceByKey(contribs, 0, func(a, b float64) float64 { return a + b }))
		for v := range vertices {
			ranks[v] = (1 - damping) + damping*summed[v]
		}
	}
	return ranks
}

// seedLogisticRegression is the seed kernel: a per-iteration parallel
// tree-aggregate allocating a fresh gradient slice per partition, and
// dimension-mismatched points silently dropped from the gradient (a state
// the live kernel's flat training set cannot represent).
func seedLogisticRegression(points *RDD[LabeledPoint], iterations int, learningRate float64) ([]float64, error) {
	first := collect(points)
	if len(first) == 0 {
		return nil, ErrEmpty
	}
	dim := len(first[0].Features)
	points.Cache()

	weights := make([]float64, dim)
	n := float64(len(first))
	for it := 0; it < iterations; it++ {
		w := weights
		grad := Aggregate(points,
			func() []float64 { metrics.IncArray(); return make([]float64, dim) },
			func(acc []float64, p LabeledPoint) []float64 {
				if len(p.Features) != dim {
					return acc
				}
				z := 0.0
				for j, x := range p.Features {
					z += w[j] * x
				}
				err := sigmoid(z) - float64(p.Label)
				for j, x := range p.Features {
					acc[j] += err * x
				}
				return acc
			},
			func(a, b []float64) []float64 {
				for j := range a {
					a[j] += b[j]
				}
				return a
			})
		for j := range weights {
			weights[j] -= learningRate * grad[j] / n
		}
	}
	return weights, nil
}

// seedNaiveBayes is the seed kernel: per-partition accumulator structs
// of nested slices.
func seedNaiveBayes(points *RDD[LabeledPoint], numClasses, numFeatures int) (*NaiveBayesModel, error) {
	type acc struct {
		classCounts   []float64
		featureTotals [][]float64
	}
	zero := func() *acc {
		metrics.IncObject()
		a := &acc{
			classCounts:   make([]float64, numClasses),
			featureTotals: make([][]float64, numClasses),
		}
		for c := range a.featureTotals {
			a.featureTotals[c] = make([]float64, numFeatures)
		}
		return a
	}
	res := Aggregate(points, zero,
		func(a *acc, p LabeledPoint) *acc {
			if p.Label < 0 || p.Label >= numClasses || len(p.Features) != numFeatures {
				return a
			}
			a.classCounts[p.Label]++
			for j, x := range p.Features {
				a.featureTotals[p.Label][j] += x
			}
			return a
		},
		func(a, b *acc) *acc {
			for c := range a.classCounts {
				a.classCounts[c] += b.classCounts[c]
				for j := range a.featureTotals[c] {
					a.featureTotals[c][j] += b.featureTotals[c][j]
				}
			}
			return a
		})

	total := 0.0
	for _, c := range res.classCounts {
		total += c
	}
	if total == 0 {
		return nil, ErrEmpty
	}
	m := &NaiveBayesModel{
		ClassLogPrior: make([]float64, numClasses),
		FeatureLogPr:  make([][]float64, numClasses),
	}
	for c := 0; c < numClasses; c++ {
		m.ClassLogPrior[c] = math.Log((res.classCounts[c] + 1) / (total + float64(numClasses)))
		m.FeatureLogPr[c] = make([]float64, numFeatures)
		rowSum := 0.0
		for _, v := range res.featureTotals[c] {
			rowSum += v
		}
		for j, v := range res.featureTotals[c] {
			m.FeatureLogPr[c][j] = math.Log((v + 1) / (rowSum + float64(numFeatures)))
		}
	}
	return m, nil
}

// seedChiSquare is the seed kernel: three-level nested contingency
// tables allocated per partition.
func seedChiSquare(points *RDD[LabeledPoint], numClasses, numFeatures, numBuckets int) []float64 {
	// Contingency tables: [feature][bucket][class] counts.
	type tables [][][]float64
	zero := func() tables {
		metrics.IncObject()
		t := make(tables, numFeatures)
		for f := range t {
			t[f] = make([][]float64, numBuckets)
			for b := range t[f] {
				t[f][b] = make([]float64, numClasses)
			}
		}
		return t
	}
	res := Aggregate(points, zero,
		func(t tables, p LabeledPoint) tables {
			if p.Label < 0 || p.Label >= numClasses {
				return t
			}
			for f := 0; f < numFeatures && f < len(p.Features); f++ {
				b := int(p.Features[f])
				if b < 0 {
					b = 0
				}
				if b >= numBuckets {
					b = numBuckets - 1
				}
				t[f][b][p.Label]++
			}
			return t
		},
		func(a, b tables) tables {
			for f := range a {
				for bk := range a[f] {
					for c := range a[f][bk] {
						a[f][bk][c] += b[f][bk][c]
					}
				}
			}
			return a
		})

	stats := make([]float64, numFeatures)
	for f := 0; f < numFeatures; f++ {
		rowTotals := make([]float64, numBuckets)
		colTotals := make([]float64, numClasses)
		grand := 0.0
		for b := 0; b < numBuckets; b++ {
			for c := 0; c < numClasses; c++ {
				v := res[f][b][c]
				rowTotals[b] += v
				colTotals[c] += v
				grand += v
			}
		}
		if grand == 0 {
			continue
		}
		chi := 0.0
		for b := 0; b < numBuckets; b++ {
			for c := 0; c < numClasses; c++ {
				expected := rowTotals[b] * colTotals[c] / grand
				if expected > 0 {
					d := res[f][b][c] - expected
					chi += d * d / expected
				}
			}
		}
		stats[f] = chi
	}
	return stats
}

// seedDecisionTree is the seed kernel: tree growth over []LabeledPoint
// with per-node left/right point-struct copies.
func seedDecisionTree(points *RDD[LabeledPoint], numClasses, maxDepth, minLeaf int) (*TreeNode, error) {
	data := collect(points)
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	return seedGrowTree(data, numClasses, maxDepth, minLeaf), nil
}

func seedGrowTree(data []LabeledPoint, numClasses, depth, minLeaf int) *TreeNode {
	counts := make([]int, numClasses)
	for _, p := range data {
		if p.Label >= 0 && p.Label < numClasses {
			counts[p.Label]++
		}
	}
	majority, best := 0, -1
	pure := true
	for c, n := range counts {
		if n > best {
			majority, best = c, n
		}
		if n != 0 && n != len(data) {
			pure = false
		}
	}
	if depth <= 1 || pure || len(data) < 2*minLeaf {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	numFeatures := len(data[0].Features)
	bestGini := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0

	// Histogram split search per feature, computed in parallel over
	// feature chunks (the data-parallel inner loop of MLlib's tree
	// trainer).
	type split struct {
		gini      float64
		feature   int
		threshold float64
	}
	featureIdx := make([]int, numFeatures)
	for i := range featureIdx {
		featureIdx[i] = i
	}
	results := parMapSlice(featureIdx, func(f int) split {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range data {
			v := p.Features[f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			return split{gini: math.Inf(1)}
		}
		// Class histogram per bin.
		var hist [treeHistogramBins][]int
		for b := range hist {
			hist[b] = make([]int, numClasses)
		}
		binWidth := (hi - lo) / treeHistogramBins
		for _, p := range data {
			b := int((p.Features[f] - lo) / binWidth)
			if b >= treeHistogramBins {
				b = treeHistogramBins - 1
			}
			hist[b][p.Label]++
		}
		bestLocal := split{gini: math.Inf(1)}
		leftCounts := make([]int, numClasses)
		leftN := 0
		total := len(data)
		for b := 0; b < treeHistogramBins-1; b++ {
			for c, n := range hist[b] {
				leftCounts[c] += n
				leftN += n
			}
			rightN := total - leftN
			if leftN == 0 || rightN == 0 {
				continue
			}
			gl, gr := 1.0, 1.0
			for c := 0; c < numClasses; c++ {
				pl := float64(leftCounts[c]) / float64(leftN)
				pr := float64(counts[c]-leftCounts[c]) / float64(rightN)
				gl -= pl * pl
				gr -= pr * pr
			}
			weighted := (float64(leftN)*gl + float64(rightN)*gr) / float64(total)
			if weighted < bestLocal.gini {
				bestLocal = split{weighted, f, lo + binWidth*float64(b+1)}
			}
		}
		return bestLocal
	})
	for _, s := range results {
		if s.gini < bestGini {
			bestGini, bestFeature, bestThreshold = s.gini, s.feature, s.threshold
		}
	}
	if bestFeature < 0 {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	metrics.IncArray()
	var left, right []LabeledPoint
	for _, p := range data {
		if p.Features[bestFeature] <= bestThreshold {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}
	metrics.IncObject()
	return &TreeNode{
		Feature:   bestFeature,
		Threshold: bestThreshold,
		Left:      seedGrowTree(left, numClasses, depth-1, minLeaf),
		Right:     seedGrowTree(right, numClasses, depth-1, minLeaf),
	}
}

// The engine operations and helpers the seed kernels are built on. They
// left the package once nothing outside this oracle used them; the bodies
// are the package's last versions.

// groupByKey gathers all values of each key, in input order, through
// ReduceByKey's shuffle.
func groupByKey[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int) *RDD[Pair[K, []V]] {
	singles := Map(r, func(kv Pair[K, V]) Pair[K, []V] { return KV(kv.Key, []V{kv.Value}) })
	return ReduceByKey(singles, numPartitions, func(a, b []V) []V { return append(a, b...) })
}

// flatMap maps each element to zero or more outputs, one job over the
// partitions.
func flatMap[T, U any](r *RDD[T], fn func(T) []U) *RDD[U] {
	metrics.IncObject()
	return &RDD[U]{runParts(len(r.parts), func(p int) []U {
		var out []U
		for _, x := range r.parts[p] {
			out = append(out, fn(x)...)
		}
		metrics.AddIDynamic(int64(len(r.parts[p])))
		return out
	})}
}

// parMapSlice evaluates fn over xs on the shared work-stealing executor,
// one chunk per element (element counts here are small and elements
// coarse: features, users).
func parMapSlice[T any, U any](xs []T, fn func(T) U) []U {
	out := make([]U, len(xs))
	forkjoin.For(len(xs), 1, func(lo, hi int) {
		metrics.AddIDynamic(int64(hi - lo))
		for i := lo; i < hi; i++ {
			out[i] = fn(xs[i])
		}
	})
	return out
}

func randomVector(rng *rand.Rand, n int) []float64 {
	metrics.IncArray()
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func newMatrix(n int) [][]float64 {
	metrics.IncArray()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// solveLinearSystem solves a·x = b by Gaussian elimination with partial
// pivoting. It reports false for (numerically) singular systems. The
// matrix a is modified in place. It is the seed ALS's solver, and the
// general baseline lin.CholeskySolve is property-tested against.
func solveLinearSystem(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		x[col], x[pivot] = x[pivot], x[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back-substitute.
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= a[col][c] * x[c]
		}
		x[col] = sum / a[col][col]
	}
	return x, true
}

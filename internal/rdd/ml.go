package rdd

import (
	"math"

	"renaissance/internal/forkjoin"
	"renaissance/internal/lin"
	"renaissance/internal/metrics"
)

// This file implements the machine-learning kernels that Spark MLlib
// provides to the paper's benchmarks: logistic regression, multinomial
// naive Bayes, chi-square testing, decision trees (alternating least
// squares and PageRank live in als.go and graph.go). Each kernel reads a
// flat training set (Points), built once at workload setup, in place and
// runs chunked parallel-for passes on the shared work-stealing executor,
// accumulating into flat per-chunk tables that merge in fixed chunk order
// — so results are deterministic at any GOMAXPROCS. Chunk c covers rows
// [c·n/parts, (c+1)·n/parts): the partition split of Parallelize(·, 8),
// preserving the seed kernels' partition-ordered aggregation semantics.

// Points is a labeled training set in flat storage: row i of X holds
// point i's features and Labels[i] its class. It is the layout of the
// stacked InstanceBlock that Spark ML (3.1 and later) trains its linear
// models on: one contiguous feature matrix plus a label vector, with no
// per-point object for the collector to trace.
type Points struct {
	X      *lin.Mat
	Labels []int32
}

// NewPoints allocates a zeroed training set of n points with dim features
// each; the caller fills X.Row(i) and Labels[i].
func NewPoints(n, dim int) *Points {
	metrics.Acquire().AddArray(2)
	return &Points{X: lin.NewMat(n, dim), Labels: make([]int32, n)}
}

// mlParts is the kernels' chunk count over n rows: the partition count
// Parallelize gives n elements by default, so the per-chunk accumulators
// merge in the grouping and order the seed's per-partition Aggregate used.
func mlParts(n int) int { return clampPartitions(0, defaultPartitions, n) }

// sigmoid is the logistic link function.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// LogisticRegression fits binary logistic regression (labels 0/1) with
// batch gradient descent — the log-regression benchmark kernel. Each
// gradient pass is a chunked parallel-for where chunk c folds its rows
// into its own flat gradient row (one unrolled Dot and one Axpy per
// point), and the per-chunk gradients merge in chunk order.
func LogisticRegression(points *Points, iterations int, learningRate float64) ([]float64, error) {
	x, labels := points.X, points.Labels
	n, dim := x.Rows, x.Cols
	if n == 0 {
		return nil, ErrEmpty
	}
	parts := mlParts(n)
	metrics.Acquire().AddArray(2)
	// One gradient accumulator per chunk, rows padded onto disjoint
	// cache lines (a bare dim-wide row is ~one line, so neighboring
	// chunks would false-share on every point).
	grads := lin.NewMat(parts, lin.PadStride(dim))
	weights := make([]float64, dim)
	for it := 0; it < iterations; it++ {
		w := weights
		// forPartsRetry, not For: a failed chunk re-clears its private
		// gradient row and recomputes, so a transient fault costs one
		// chunk replay instead of the whole pass.
		if err := forPartsRetry(parts, func(c int) {
			loc := metrics.Acquire()
			g := grads.Row(c)[:dim]
			clear(g)
			rlo, rhi := c*n/parts, (c+1)*n/parts
			loc.AddIDynamic(int64(rhi - rlo))
			for i := rlo; i < rhi; i++ {
				row := x.Row(i)
				e := sigmoid(lin.Dot(w, row)) - float64(labels[i])
				lin.Axpy(e, row, g)
			}
		}); err != nil {
			return nil, err
		}
		// Merge in fixed chunk order, then descend.
		g := grads.Row(0)[:dim]
		for c := 1; c < parts; c++ {
			lin.Axpy(1, grads.Row(c)[:dim], g)
		}
		lin.Axpy(-learningRate/float64(n), g, weights)
	}
	return weights, nil
}

// PredictLogistic returns the probability of class 1 for the features.
func PredictLogistic(weights, features []float64) float64 {
	return sigmoid(lin.Dot(weights, features))
}

// NaiveBayesModel is a fitted multinomial naive Bayes classifier.
type NaiveBayesModel struct {
	ClassLogPrior []float64   // log P(class)
	FeatureLogPr  [][]float64 // [class][feature] log P(feature|class)
}

// NaiveBayes fits a multinomial model with Laplace smoothing over
// non-negative feature counts — the naive-bayes benchmark kernel. Each
// chunk folds its rows into one flat table of numClasses×(numFeatures+1)
// floats (class count in column 0, feature totals after), replacing the
// seed's per-partition struct of nested slices; tables merge in chunk
// order. Points with an out-of-range label are skipped, as in the seed.
func NaiveBayes(points *Points, numClasses int) (*NaiveBayesModel, error) {
	x, labels := points.X, points.Labels
	n, numFeatures := x.Rows, x.Cols
	parts := mlParts(n)
	stride := numFeatures + 1
	width := numClasses * stride
	metrics.Acquire().IncArray()
	// Per-chunk count tables, rows padded onto disjoint cache lines.
	tab := lin.NewMat(parts, lin.PadStride(width))
	// Each attempt clears its private table row first, so a recompute
	// after a mid-chunk fault never double-counts.
	if err := forPartsRetry(parts, func(c int) {
		acc := tab.Row(c)[:width]
		clear(acc)
		rlo, rhi := c*n/parts, (c+1)*n/parts
		metrics.Acquire().AddIDynamic(int64(rhi - rlo))
		for i := rlo; i < rhi; i++ {
			l := int(labels[i])
			if l < 0 || l >= numClasses {
				continue
			}
			row := acc[l*stride : (l+1)*stride]
			row[0]++
			lin.Axpy(1, x.Row(i), row[1:])
		}
	}); err != nil {
		return nil, err
	}
	res := tab.Row(0)[:width]
	for c := 1; c < parts; c++ {
		lin.Axpy(1, tab.Row(c)[:width], res)
	}

	total := 0.0
	for class := 0; class < numClasses; class++ {
		total += res[class*stride]
	}
	if total == 0 {
		return nil, ErrEmpty
	}
	m := &NaiveBayesModel{
		ClassLogPrior: make([]float64, numClasses),
		FeatureLogPr:  make([][]float64, numClasses),
	}
	for c := 0; c < numClasses; c++ {
		row := res[c*stride : (c+1)*stride]
		m.ClassLogPrior[c] = math.Log((row[0] + 1) / (total + float64(numClasses)))
		m.FeatureLogPr[c] = make([]float64, numFeatures)
		rowSum := 0.0
		for _, v := range row[1:] {
			rowSum += v
		}
		for j, v := range row[1:] {
			m.FeatureLogPr[c][j] = math.Log((v + 1) / (rowSum + float64(numFeatures)))
		}
	}
	return m, nil
}

// Predict returns the most likely class for the feature counts.
func (m *NaiveBayesModel) Predict(features []float64) int {
	best, bestScore := 0, math.Inf(-1)
	for c := range m.ClassLogPrior {
		score := m.ClassLogPrior[c] + lin.Dot(features, m.FeatureLogPr[c])
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// ChiSquare computes the chi-square independence statistic of every
// feature against the label over discretized features (values are bucketed
// by floor) — the chi-square benchmark kernel. It returns one statistic
// per feature. Each chunk folds its rows into one flat
// [feature][bucket][class] contingency array (the seed allocated a
// three-level nested slice per partition), merged in chunk order.
func ChiSquare(points *Points, numClasses, numBuckets int) []float64 {
	x, labels := points.X, points.Labels
	n, numFeatures := x.Rows, x.Cols
	parts := mlParts(n)
	stride := numBuckets * numClasses // one feature's table
	width := numFeatures * stride
	metrics.Acquire().IncArray()
	// Per-chunk tables, rows padded onto disjoint cache lines.
	tab := lin.NewMat(parts, lin.PadStride(width))
	// Attempts clear their private table row first — recompute-safe, like
	// NaiveBayes. A persistent failure re-panics (legacy action contract).
	if err := forPartsRetry(parts, func(c int) {
		acc := tab.Row(c)[:width]
		clear(acc)
		rlo, rhi := c*n/parts, (c+1)*n/parts
		metrics.Acquire().AddIDynamic(int64(rhi - rlo))
		for i := rlo; i < rhi; i++ {
			l := int(labels[i])
			if l < 0 || l >= numClasses {
				continue
			}
			for f, v := range x.Row(i) {
				b := int(v)
				if b < 0 {
					b = 0
				}
				if b >= numBuckets {
					b = numBuckets - 1
				}
				acc[f*stride+b*numClasses+l]++
			}
		}
	}); err != nil {
		panic(err)
	}
	res := tab.Row(0)[:width]
	for c := 1; c < parts; c++ {
		lin.Axpy(1, tab.Row(c)[:width], res)
	}

	stats := make([]float64, numFeatures)
	rowTotals := make([]float64, numBuckets)
	colTotals := make([]float64, numClasses)
	for f := 0; f < numFeatures; f++ {
		ft := res[f*stride : (f+1)*stride]
		clear(rowTotals)
		clear(colTotals)
		grand := 0.0
		for b := 0; b < numBuckets; b++ {
			for c := 0; c < numClasses; c++ {
				v := ft[b*numClasses+c]
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
					d := ft[b*numClasses+c] - expected
					chi += d * d / expected
				}
			}
		}
		stats[f] = chi
	}
	return stats
}

// TreeNode is a node of a fitted classification decision tree.
type TreeNode struct {
	Feature     int
	Threshold   float64
	Left, Right *TreeNode
	Prediction  int // leaf prediction when Left == nil
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil }

// Predict classifies features by walking the tree.
func (n *TreeNode) Predict(features []float64) int {
	for !n.IsLeaf() {
		if features[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prediction
}

// DecisionTree fits a CART-style classification tree: at every node the
// Gini-best (feature, threshold) split is selected from per-feature
// histograms computed in parallel over the features — the dec-tree
// benchmark kernel. Tree nodes work on index subsets of the flat training
// set: one int32 index array for the whole tree, which every split
// partitions in place (node by node, each node's subset is a contiguous
// range of it), so every histogram fill walks one flat column-strided
// array and no node copies points or allocates index slices.
func DecisionTree(points *Points, numClasses, maxDepth, minLeaf int) (*TreeNode, error) {
	n := points.X.Rows
	if n == 0 {
		return nil, ErrEmpty
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	metrics.Acquire().AddArray(2)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &treeBuilder{
		x: points.X, labels: points.Labels, numClasses: numClasses, minLeaf: minLeaf,
		spill: make([]int32, n),
	}
	return t.grow(idx, maxDepth), nil
}

const treeHistogramBins = 16

// treeBuilder carries the flat training set through the recursion.
type treeBuilder struct {
	x          *lin.Mat
	labels     []int32
	numClasses int
	minLeaf    int
	// spill holds the right side of the split in progress; the recursion
	// is sequential, so one buffer serves every node.
	spill []int32
}

// split is one feature's best histogram split.
type split struct {
	gini      float64
	feature   int
	threshold float64
}

func (t *treeBuilder) grow(idx []int32, depth int) *TreeNode {
	counts := make([]int, t.numClasses)
	for _, i := range idx {
		if l := int(t.labels[i]); l >= 0 && l < t.numClasses {
			counts[l]++
		}
	}
	majority, best := 0, -1
	pure := true
	for c, n := range counts {
		if n > best {
			majority, best = c, n
		}
		if n != 0 && n != len(idx) {
			pure = false
		}
	}
	if depth <= 1 || pure || len(idx) < 2*t.minLeaf {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	numFeatures := t.x.Cols
	// Histogram split search, parallel per feature on the shared
	// work-stealing executor (the data-parallel inner loop of MLlib's
	// tree trainer). Results land in a fixed per-feature slot, so the
	// arg-min below is deterministic.
	metrics.IncArray()
	results := make([]split, numFeatures)
	forkjoin.For(numFeatures, 1, func(flo, fhi int) {
		loc := metrics.Acquire()
		for f := flo; f < fhi; f++ {
			loc.IncIDynamic()
			results[f] = t.bestSplit(idx, f, counts)
		}
	})
	bestGini := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0
	for _, s := range results {
		if s.gini < bestGini {
			bestGini, bestFeature, bestThreshold = s.gini, s.feature, s.threshold
		}
	}
	if bestFeature < 0 {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	// Stable in-place partition: the left side compacts to the front of
	// idx, the right side goes through the spill buffer to the back, both
	// in their original order.
	nl, nr := 0, 0
	for _, i := range idx {
		if t.x.At(int(i), bestFeature) <= bestThreshold {
			idx[nl] = i
			nl++
		} else {
			t.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], t.spill[:nr])
	if nl < t.minLeaf || nr < t.minLeaf {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}
	metrics.IncObject()
	return &TreeNode{
		Feature:   bestFeature,
		Threshold: bestThreshold,
		Left:      t.grow(idx[:nl], depth-1),
		Right:     t.grow(idx[nl:], depth-1),
	}
}

// bestSplit scans feature f over the node's points: one pass for the
// range, one histogram fill into a flat [bin][class] table, then the
// Gini sweep over bin boundaries — the same arithmetic as the seed, over
// flat storage.
func (t *treeBuilder) bestSplit(idx []int32, f int, counts []int) split {
	nc := t.numClasses
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := t.x.At(int(i), f)
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
	var hist [treeHistogramBins * 8]int32 // flat [bin][class], stack-backed for nc <= 8
	h := hist[:]
	if nc > 8 {
		h = make([]int32, treeHistogramBins*nc)
	} else {
		h = h[:treeHistogramBins*nc]
		clear(h)
	}
	binWidth := (hi - lo) / treeHistogramBins
	for _, i := range idx {
		b := int((t.x.At(int(i), f) - lo) / binWidth)
		if b >= treeHistogramBins {
			b = treeHistogramBins - 1
		}
		h[b*nc+int(t.labels[i])]++
	}
	bestLocal := split{gini: math.Inf(1)}
	var leftCounts [8]int
	lc := leftCounts[:]
	if nc > 8 {
		lc = make([]int, nc)
	} else {
		lc = lc[:nc]
		clear(lc)
	}
	leftN := 0
	total := len(idx)
	for b := 0; b < treeHistogramBins-1; b++ {
		for c := 0; c < nc; c++ {
			lc[c] += int(h[b*nc+c])
			leftN += int(h[b*nc+c])
		}
		rightN := total - leftN
		if leftN == 0 || rightN == 0 {
			continue
		}
		gl, gr := 1.0, 1.0
		for c := 0; c < nc; c++ {
			pl := float64(lc[c]) / float64(leftN)
			pr := float64(counts[c]-lc[c]) / float64(rightN)
			gl -= pl * pl
			gr -= pr * pr
		}
		weighted := (float64(leftN)*gl + float64(rightN)*gr) / float64(total)
		if weighted < bestLocal.gini {
			bestLocal = split{weighted, f, lo + binWidth*float64(b+1)}
		}
	}
	return bestLocal
}

package rdd

import (
	"fmt"
	"math"

	"renaissance/internal/lin"
	"renaissance/internal/metrics"
)

// This file implements the machine-learning kernels that Spark MLlib
// provides to the paper's benchmarks: logistic regression, multinomial
// naive Bayes, chi-square testing, decision trees (alternating least
// squares and PageRank live in als.go and graph.go). Each kernel reads a
// flat training set, built once at workload setup, in place: Points, one
// float64 matrix, for the Gaussian features of logistic regression and
// the decision tree; Counts, one byte a feature, for the category codes
// and occurrence counts of chi-square and naive Bayes. The kernels run
// chunked parallel-for passes (forRetry) on the shared work-stealing
// executor, the counting and gradient passes into flat per-chunk float64
// tables merged in fixed chunk order (foldChunks) — so results are
// deterministic at any GOMAXPROCS, and counting from bytes gives the bits
// counting from float64s gave (integer sums are exact). Chunk c covers
// rows [c·n/parts, (c+1)·n/parts): the partition split of
// Parallelize(·, 8), the seed kernels' aggregation order. Accuracy scores
// a fitted model over the same chunks.

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
	metrics.AddArray(2)
	return &Points{X: lin.NewMat(n, dim), Labels: make([]int32, n)}
}

// Counts is a labeled training set of small non-negative integers —
// category codes or occurrence counts, 0–255 — one byte a feature: X is
// row-major n×Dim, row i holds point i's features and Labels[i] its
// class. It is Points' layout at an eighth of the feature bytes.
type Counts struct {
	X      []uint8
	Dim    int
	Labels []int32
}

// NewCounts allocates a zeroed training set of n points with dim features
// each; the caller fills Row(i) and Labels[i].
func NewCounts(n, dim int) *Counts {
	metrics.AddArray(2)
	return &Counts{X: make([]uint8, n*dim), Dim: dim, Labels: make([]int32, n)}
}

// Row returns point i's features, capacity-clipped like lin.Mat.Row.
func (s *Counts) Row(i int) []uint8 {
	return s.X[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]
}

// mlParts is the kernels' chunk count over n rows: the partition count
// Parallelize gives n elements by default, so the per-chunk accumulators
// merge in the grouping and order the seed's per-partition Aggregate used.
func mlParts(n int) int { return clampPartitions(0, defaultPartitions, n) }

// foldChunks is the counting and gradient kernels' pass over n rows: chunk
// c of parts = tab.Rows clears its row's first width floats (an attempt
// clears first, so a recompute never double-counts), folds rows
// [c·n/parts, (c+1)·n/parts) into them, and the rows merge into row 0 in
// chunk order, which it returns. tab's rows are padded onto disjoint
// cache lines (lin.PadStride), or neighbouring chunks false-share.
func foldChunks(tab *lin.Mat, n, width int, fold func(acc []float64, lo, hi int)) ([]float64, error) {
	parts := tab.Rows
	if err := forRetry(parts, 1, func(c, _ int) {
		acc := tab.Row(c)[:width]
		clear(acc)
		lo, hi := c*n/parts, (c+1)*n/parts
		metrics.AddIDynamic(int64(hi - lo))
		fold(acc, lo, hi)
	}); err != nil {
		return nil, err
	}
	res := tab.Row(0)[:width]
	for c := 1; c < parts; c++ {
		lin.Axpy(1, tab.Row(c)[:width], res)
	}
	return res, nil
}

// Accuracy returns the fraction of the n = len(labels) points for which
// predict(i) == labels[i]. Each mlParts chunk counts its hits under the
// recompute budget (an attempt overwrites its own slot, so a retry never
// double-counts) and the counts sum in chunk order; predict must be safe
// to call concurrently. An empty label set returns ErrEmpty.
func Accuracy(labels []int32, predict func(i int) int) (float64, error) {
	n := len(labels)
	if n == 0 {
		return 0, ErrEmpty
	}
	parts := mlParts(n)
	var hits [defaultPartitions]int
	if err := forRetry(parts, 1, func(c, _ int) {
		h := 0
		for i := c * n / parts; i < (c+1)*n/parts; i++ {
			if predict(i) == int(labels[i]) {
				h++
			}
		}
		hits[c] = h
	}); err != nil {
		return 0, err
	}
	correct := 0
	for _, h := range hits[:parts] {
		correct += h
	}
	return float64(correct) / float64(n), nil
}

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
	metrics.AddArray(2)
	grads := lin.NewMat(mlParts(n), lin.PadStride(dim))
	weights := make([]float64, dim)
	for it := 0; it < iterations; it++ {
		g, err := foldChunks(grads, n, dim, func(g []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				row := x.Row(i)
				e := sigmoid(lin.Dot(weights, row)) - float64(labels[i])
				lin.Axpy(e, row, g)
			}
		})
		if err != nil {
			return nil, err
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
func NaiveBayes(points *Counts, numClasses int) (*NaiveBayesModel, error) {
	labels := points.Labels
	n, numFeatures := len(labels), points.Dim
	stride := numFeatures + 1
	width := numClasses * stride
	metrics.IncArray()
	res, err := foldChunks(lin.NewMat(mlParts(n), lin.PadStride(width)), n, width, func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			l := int(labels[i])
			if l < 0 || l >= numClasses {
				continue
			}
			row := acc[l*stride : (l+1)*stride]
			row[0]++
			feats := row[1:]
			for j, v := range points.Row(i) {
				feats[j] += float64(v)
			}
		}
	})
	if err != nil {
		return nil, err
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

// Predict returns the most likely class for a row of feature counts.
func (m *NaiveBayesModel) Predict(row []uint8) int {
	best, bestScore := 0, math.Inf(-1)
	for c := range m.ClassLogPrior {
		score := m.ClassLogPrior[c] + dotCounts(row, m.FeatureLogPr[c])
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// dotCounts returns Σ float64(x[i])·y[i] with lin.Dot's four partial sums
// and combine order, so it has the bits of lin.Dot over the converted row
// without building it.
func dotCounts(x []uint8, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(x[i]) * y[i]
		s1 += float64(x[i+1]) * y[i+1]
		s2 += float64(x[i+2]) * y[i+2]
		s3 += float64(x[i+3]) * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += float64(x[i]) * y[i]
	}
	return s
}

// ChiSquare computes the chi-square independence statistic of every
// feature against the label over category codes; codes ≥ numBuckets fold
// into the last bucket — the chi-square benchmark kernel. It returns one
// statistic per feature, or the final *forkjoin.TaskError of a chunk
// whose recompute budget was spent. Each chunk folds its rows into one
// flat [feature][bucket][class] contingency array (the seed allocated a
// three-level nested slice per partition), merged in chunk order.
func ChiSquare(points *Counts, numClasses, numBuckets int) ([]float64, error) {
	labels := points.Labels
	n, numFeatures := len(labels), points.Dim
	stride := numBuckets * numClasses // one feature's table
	width := numFeatures * stride
	metrics.IncArray()
	res, err := foldChunks(lin.NewMat(mlParts(n), lin.PadStride(width)), n, width, func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			l := int(labels[i])
			if l < 0 || l >= numClasses {
				continue
			}
			for f, v := range points.Row(i) {
				b := min(int(v), numBuckets-1)
				acc[f*stride+b*numClasses+l]++
			}
		}
	})
	if err != nil {
		return nil, err
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
	return stats, nil
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
// array and no node copies points or allocates index slices. Every label
// must lie in [0, numClasses): the histograms index by it.
func DecisionTree(points *Points, numClasses, maxDepth, minLeaf int) (*TreeNode, error) {
	n := points.X.Rows
	if n == 0 {
		return nil, ErrEmpty
	}
	for i, l := range points.Labels {
		if l < 0 || int(l) >= numClasses {
			return nil, fmt.Errorf("rdd: decision tree: point %d has label %d outside [0, %d)", i, l, numClasses)
		}
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	metrics.AddArray(2)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &treeBuilder{
		x: points.X, labels: points.Labels, numClasses: numClasses, minLeaf: minLeaf,
		spill: make([]int32, n),
	}
	root := t.grow(idx, maxDepth)
	if t.err != nil {
		return nil, t.err
	}
	return root, nil
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
	err   error // the first failed split search: no node splits after it
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
		counts[t.labels[i]]++
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
	if depth <= 1 || pure || len(idx) < 2*t.minLeaf || t.err != nil {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	numFeatures := t.x.Cols
	// Histogram split search, parallel per feature on the shared
	// work-stealing executor (the data-parallel inner loop of MLlib's
	// tree trainer). Results land in a fixed per-feature slot, so the
	// arg-min below is deterministic and a retried feature overwrites
	// only its own slot.
	metrics.IncArray()
	results := make([]split, numFeatures)
	if err := forRetry(numFeatures, 1, func(flo, fhi int) {
		metrics.AddIDynamic(int64(fhi - flo))
		for f := flo; f < fhi; f++ {
			results[f] = t.bestSplit(idx, f, counts)
		}
	}); err != nil {
		t.err = err
		return nil
	}
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

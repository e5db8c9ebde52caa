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
// and occurrence counts of chi-square and naive Bayes. Both keep one byte
// a label: every workload has two or three classes. The kernels run
// chunked parallel-for passes (forRetry) on the shared work-stealing
// executor, the counting and gradient passes into flat per-chunk float64
// tables merged in fixed chunk order (foldChunks) — so results are
// deterministic at any GOMAXPROCS, and counting from bytes gives the bits
// counting from float64s gave (integer sums are exact). Chunk c covers
// rows [c·n/parts, (c+1)·n/parts): the partition split of
// Parallelize(·, 8), the seed kernels' aggregation order. The decision
// tree makes one such pass over a node's rows, row by row, into per-chunk
// int32 histograms. Accuracy scores a fitted model over the same chunks.

// Points is a labeled training set in flat storage: row i of X holds
// point i's features and Labels[i] its class, 0–255. It is the layout of
// the stacked InstanceBlock that Spark ML (3.1 and later) trains its
// linear models on: one contiguous feature matrix plus a label vector,
// with no per-point object for the collector to trace.
type Points struct {
	X      *lin.Mat
	Labels []uint8
}

// NewPoints allocates a zeroed training set of n points with dim features
// each; the caller fills X.Row(i) and Labels[i].
func NewPoints(n, dim int) *Points {
	metrics.AddArray(2)
	return &Points{X: lin.NewMat(n, dim), Labels: make([]uint8, n)}
}

// Counts is a labeled training set of small non-negative integers —
// category codes or occurrence counts, 0–255 — one byte a feature: X is
// row-major n×Dim, row i holds point i's features and Labels[i] its
// class, 0–255. It is Points' layout at an eighth of the feature bytes.
type Counts struct {
	X      []uint8
	Dim    int
	Labels []uint8
}

// NewCounts allocates a zeroed training set of n points with dim features
// each; the caller fills Row(i) and Labels[i].
func NewCounts(n, dim int) *Counts {
	metrics.AddArray(2)
	return &Counts{X: make([]uint8, n*dim), Dim: dim, Labels: make([]uint8, n)}
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
func Accuracy(labels []uint8, predict func(i int) int) (float64, error) {
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
// order. Points with a label ≥ numClasses are skipped, as in the seed.
func NaiveBayes(points *Counts, numClasses int) (*NaiveBayesModel, error) {
	labels := points.Labels
	n, numFeatures := len(labels), points.Dim
	stride := numFeatures + 1
	width := numClasses * stride
	metrics.IncArray()
	res, err := foldChunks(lin.NewMat(mlParts(n), lin.PadStride(width)), n, width, func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			l := int(labels[i])
			if l >= numClasses {
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
			if l >= numClasses {
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
// Gini-best (feature, threshold) split is selected from histograms of
// treeHistogramBins equal-width bins between each feature's minimum and
// maximum over the node's points — the dec-tree benchmark kernel. Tree
// nodes work on index subsets of the flat training set: one int32 index
// array for the whole tree, which every split partitions in place (node by
// node, each node's subset is a contiguous range of it), so no node copies
// points or allocates index slices. A node costs one parallel pass over
// its rows (search). The class counts and per-feature [lo, hi] that pass
// bins by come from the parent's partition pass, and the root's from the
// pass here, which also checks the points: every label must be below
// numClasses, since the histograms index by it, and every feature finite,
// since a NaN or an infinity has no bin.
func DecisionTree(points *Points, numClasses, maxDepth, minLeaf int) (*TreeNode, error) {
	n := points.X.Rows
	if n == 0 {
		return nil, ErrEmpty
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	t := newTreeBuilder(points, numClasses, minLeaf)
	metrics.IncArray()
	idx := make([]int32, n)
	root := t.level(0, maxDepth > 1)[0]
	for i, l := range points.Labels {
		if int(l) >= numClasses {
			return nil, fmt.Errorf("rdd: decision tree: point %d has label %d outside [0, %d)", i, l, numClasses)
		}
		row := points.X.Row(i)
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("rdd: decision tree: point %d has non-finite feature %d (%v)", i, f, v)
			}
		}
		idx[i] = int32(i)
		root.add(row, l)
	}
	tree := t.grow(idx, 0, maxDepth, root)
	if t.err != nil {
		return nil, t.err
	}
	return tree, nil
}

const treeHistogramBins = 16

// treeBuilder carries the flat training set and the fit's scratch through
// the recursion. The recursion is sequential, so one set of buffers
// serves every node.
type treeBuilder struct {
	x          *lin.Mat
	labels     []uint8
	numClasses int
	minLeaf    int
	spill      []int32        // the right side of the split in progress
	hist       []int32        // per-chunk [feature][bin][class] tables, histStride apart
	histStride int            // one table's width padded onto its own cache lines
	bins       []binning      // the node's features with a range
	leftCounts []int          // the Gini sweep's class counts left of a boundary
	levels     [][2]nodeStats // the statistics of the nodes being built, by level
	err        error          // the first failed split search: no node splits after it
}

func newTreeBuilder(points *Points, numClasses, minLeaf int) *treeBuilder {
	width := points.X.Cols * treeHistogramBins * numClasses
	stride := (width+15)&^15 + 16 // lin.PadStride for 4-byte cells
	metrics.AddArray(4)
	return &treeBuilder{
		x: points.X, labels: points.Labels, numClasses: numClasses, minLeaf: minLeaf,
		spill:      make([]int32, points.X.Rows),
		hist:       make([]int32, defaultPartitions*stride),
		histStride: stride,
		bins:       make([]binning, 0, points.X.Cols),
		leftCounts: make([]int, numClasses),
	}
}

// nodeStats is what a node's split search needs besides its rows: the
// class counts and each feature's [lo, hi] over its points. lo and hi are
// nil for a node its depth makes a leaf.
type nodeStats struct {
	counts []int
	lo, hi []float64
}

// level returns cleared statistics for the left and the right node k
// levels below the root (the root is level 0's left node). The recursion
// is depth first, so one pair of siblings a level is built at a time, and
// a level's pair is allocated once, when the tree first grows that deep.
// bounds says whether the nodes may split and so need the per-feature
// [lo, hi].
func (t *treeBuilder) level(k int, bounds bool) [2]nodeStats {
	if k == len(t.levels) {
		nc, f := t.numClasses, t.x.Cols
		metrics.AddArray(2)
		counts, b := make([]int, 2*nc), make([]float64, 4*f)
		t.levels = append(t.levels, [2]nodeStats{
			{counts[:nc:nc], b[:f:f], b[f : 2*f : 2*f]},
			{counts[nc:], b[2*f : 3*f : 3*f], b[3*f:]},
		})
	}
	pair := t.levels[k]
	for s := range pair {
		clear(pair[s].counts)
		if !bounds {
			pair[s].lo, pair[s].hi = nil, nil
			continue
		}
		for j := range pair[s].lo {
			pair[s].lo[j], pair[s].hi[j] = math.Inf(1), math.Inf(-1)
		}
	}
	return pair
}

// add counts a point of class l with features row into the statistics.
func (s *nodeStats) add(row []float64, l uint8) {
	s.counts[l]++
	if s.lo == nil {
		return
	}
	lo, hi := s.lo[:len(row)], s.hi[:len(row)]
	for f, v := range row {
		if v < lo[f] {
			lo[f] = v
		}
		if v > hi[f] {
			hi[f] = v
		}
	}
}

// binning maps feature f's values onto a node's histogram bins:
// int((v-lo)/width), the last bin closed.
type binning struct {
	f         int
	lo, width float64
}

// split is a Gini-best split; feature is -1 when none was found.
type split struct {
	gini      float64
	feature   int
	threshold float64
}

// grow fits the subtree of the node k levels below the root, of the
// given depth budget, over the points idx with statistics st.
func (t *treeBuilder) grow(idx []int32, k, depth int, st nodeStats) *TreeNode {
	majority, best := 0, -1
	pure := true
	for c, n := range st.counts {
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
	s, err := t.search(idx, st)
	if err != nil {
		t.err = err
		return nil
	}
	if s.feature < 0 {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}

	// Stable in-place partition: the left side compacts to the front of
	// idx, the right side goes through the spill buffer to the back, both
	// in their original order. The children's statistics are gathered on
	// the way, in that order; a child at depth 1 is a leaf and needs no
	// bounds.
	c := t.level(k+1, depth > 2)
	nl, nr := 0, 0
	for _, i := range idx {
		row := t.x.Row(int(i))
		if row[s.feature] <= s.threshold {
			idx[nl] = i
			nl++
			c[0].add(row, t.labels[i])
		} else {
			t.spill[nr] = i
			nr++
			c[1].add(row, t.labels[i])
		}
	}
	copy(idx[nl:], t.spill[:nr])
	if nl < t.minLeaf || nr < t.minLeaf {
		metrics.IncObject()
		return &TreeNode{Prediction: majority}
	}
	metrics.IncObject()
	return &TreeNode{
		Feature:   s.feature,
		Threshold: s.threshold,
		Left:      t.grow(idx[:nl], k+1, depth-1, c[0]),
		Right:     t.grow(idx[nl:], k+1, depth-1, c[1]),
	}
}

// search returns the node's Gini-best split, or the final
// *forkjoin.TaskError of a chunk that spent its recompute budget. It is
// one chunked parallel pass over the node's points in row order (the
// data-parallel inner loop of MLlib's tree trainer): chunk c of
// mlParts(len(idx)), rows [c·n/parts, (c+1)·n/parts) as in foldChunks,
// clears its own [feature][bin][class] table and bins each of its rows
// into every feature that has a range, reading the row once. The tables
// sum into chunk 0's; integer sums are exact in any order. The Gini
// sweep then runs feature by feature, and a later feature wins only with
// a strictly lower impurity. A constant feature (hi <= lo) has no split.
func (t *treeBuilder) search(idx []int32, st nodeStats) (split, error) {
	bins := t.bins[:0]
	for f, lo := range st.lo {
		if hi := st.hi[f]; hi > lo {
			bins = append(bins, binning{f, lo, (hi - lo) / treeHistogramBins})
		}
	}
	best := split{gini: math.Inf(1), feature: -1}
	if len(bins) == 0 {
		return best, nil
	}
	nc, n := t.numClasses, len(idx)
	width := t.x.Cols * treeHistogramBins * nc
	parts := mlParts(n)
	if err := forRetry(parts, 1, func(c, _ int) {
		h := t.hist[c*t.histStride:][:width]
		clear(h)
		lo, hi := c*n/parts, (c+1)*n/parts
		metrics.AddIDynamic(int64(hi - lo))
		for _, i := range idx[lo:hi] {
			row := t.x.Row(int(i))
			l := int(t.labels[i])
			for _, bn := range bins {
				b := int((row[bn.f] - bn.lo) / bn.width)
				if b >= treeHistogramBins {
					b = treeHistogramBins - 1
				}
				h[(bn.f*treeHistogramBins+b)*nc+l]++
			}
		}
	}); err != nil {
		return split{}, err
	}
	h := t.hist[:width]
	for c := 1; c < parts; c++ {
		for k, v := range t.hist[c*t.histStride:][:width] {
			h[k] += v
		}
	}
	fw := treeHistogramBins * nc
	for _, bn := range bins {
		if s := t.sweep(h[bn.f*fw:][:fw], st.counts, n, bn); s.gini < best.gini {
			best = s
		}
	}
	return best, nil
}

// sweep returns the Gini-best boundary of one feature's [bin][class]
// histogram h over a node of total points with class counts counts: the
// weighted impurity of both sides at every boundary between bins, the
// first of equal ones kept.
func (t *treeBuilder) sweep(h []int32, counts []int, total int, bn binning) split {
	nc := t.numClasses
	lc := t.leftCounts
	clear(lc)
	best := split{gini: math.Inf(1), feature: -1}
	leftN := 0
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
		if weighted < best.gini {
			best = split{weighted, bn.f, bn.lo + bn.width*float64(b+1)}
		}
	}
	return best
}

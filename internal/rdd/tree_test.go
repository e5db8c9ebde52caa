package rdd

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"renaissance/internal/chaos"
)

// bestSplit is the split search DecisionTree ran until each node made one
// row-major pass for all features, kept as the oracle of FuzzTreeSplit:
// feature f alone over the node's points, one pass for the range, one
// histogram fill into a flat [bin][class] table, then the Gini sweep over
// bin boundaries. DecisionTree took the first feature with the strictly
// lowest impurity.
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

// FuzzTreeSplit checks a node's one-pass split search (nodeStats.add, then
// treeBuilder.search) against bestSplit feature by feature, bit for bit:
// the same feature, threshold and impurity, or no split from either.
//
// The four bytes of shape pick the class count, 2–16 (above 8 the
// oracle's tables are on the heap); the feature count, 1–8; a
// quantization q, feature values int8(b)>>q / 4, so coarse values tie
// within and between features; and, from the last byte, a feature held
// constant (low nibble < feature count: hi <= lo) and whether the last
// feature copies the first (top bit: a tie between features). data holds
// one row per feature count + 2 bytes — the features, the label and a
// membership byte — and the node is the rows whose membership byte has a
// clear low bit, in index order, as a partition leaves them. The seed
// corpus in testdata/fuzz/FuzzTreeSplit covers each case.
func FuzzTreeSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		nc := 2 + int(byte(shape)%15)
		dim := 1 + int(byte(shape>>8)%8)
		q := byte(shape>>16) % 8
		constant, dup := int(shape>>24&15), shape>>31 == 1
		rowBytes := dim + 2
		n := min(len(data)/rowBytes, 600)
		pts := NewPoints(n, dim)
		var idx []int32
		for i := 0; i < n; i++ {
			b := data[i*rowBytes:][:rowBytes]
			row := pts.X.Row(i)
			for j := range row {
				row[j] = float64(int8(b[j])>>q) / 4
			}
			if constant < dim {
				row[constant] = 1.5
			}
			if dup {
				row[dim-1] = row[0]
			}
			pts.Labels[i] = b[dim] % uint8(nc)
			if b[dim+1]&1 == 0 {
				idx = append(idx, int32(i))
			}
		}
		if len(idx) < 2 {
			return
		}
		counts := make([]int, nc)
		for _, i := range idx {
			counts[pts.Labels[i]]++
		}
		tb := newTreeBuilder(pts, nc, 1)
		st := tb.level(0, true)[0]
		for _, i := range idx {
			st.add(pts.X.Row(int(i)), pts.Labels[i])
		}
		if !slices.Equal(st.counts, counts) {
			t.Fatalf("node class counts %v, want %v", st.counts, counts)
		}
		got, err := tb.search(idx, st)
		if err != nil {
			t.Fatal(err)
		}
		want := split{gini: math.Inf(1), feature: -1}
		for j := 0; j < dim; j++ {
			if s := tb.bestSplit(idx, j, counts); s.gini < want.gini {
				want = s
			}
		}
		if got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
			math.Float64bits(got.gini) != math.Float64bits(want.gini) {
			t.Fatalf("%d of %d rows, %d features, %d classes: split %+v, per-feature search %+v",
				len(idx), n, dim, nc, got, want)
		}
	})
}

// treeBits lists a fitted tree in preorder: each node's leafness,
// feature, threshold bits and prediction.
func treeBits(n *TreeNode) []uint64 {
	if n.IsLeaf() {
		return []uint64{0, uint64(n.Prediction)}
	}
	out := []uint64{1, uint64(n.Feature), math.Float64bits(n.Threshold)}
	out = append(out, treeBits(n.Left)...)
	return append(out, treeBits(n.Right)...)
}

// TestDecisionTreeIdenticalUnderRetry: the fitted tree — every node's
// feature, threshold and prediction — is the same at GOMAXPROCS 1 and 2,
// and under rdd.task faults, whose chunks are recomputed, as without
// them. A node's histogram tables merge by integer sums, so neither the
// chunk that ran first nor the attempt that completed can move a bit.
func TestDecisionTreeIdenticalUnderRetry(t *testing.T) {
	pts := pointsOf(syntheticLabeled(rand.New(rand.NewSource(29)), 3000, 8))
	fit := func() []uint64 {
		tree, err := DecisionTree(pts, 2, 6, 4)
		if err != nil {
			t.Fatalf("DecisionTree: %v", err)
		}
		return treeBits(tree)
	}
	chaos.Disable()
	t.Cleanup(chaos.Disable)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := fit()
	if len(want) < 20 {
		t.Fatalf("tree of %d words: expected a deep tree", len(want))
	}
	runtime.GOMAXPROCS(2)
	if got := fit(); !slices.Equal(got, want) {
		t.Fatal("GOMAXPROCS 2 fitted a different tree than GOMAXPROCS 1")
	}
	for _, seed := range []int64{1, 7} {
		chaos.Configure(seed, 0)
		chaos.SetRate("rdd.task", 0.05)
		got := fit()
		fires := chaos.FireCount("rdd.task")
		chaos.Configure(seed, 0)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: the tree fitted under rdd.task faults differs from the fault-free one", seed)
		}
		if fires == 0 {
			t.Fatalf("seed %d: no rdd.task fault fired — the leg proved nothing", seed)
		}
	}
}

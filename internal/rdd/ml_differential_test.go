package rdd

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"renaissance/internal/lin"
)

// Differential tests: the flat-memory kernels (internal/lin layouts)
// against the seed kernels kept verbatim in seedml_test.go, on shared
// seeded inputs. Counting kernels must agree essentially exactly;
// floating-point kernels get tolerances sized to the summation-order
// difference the 4-way-unrolled Dot/Axpy introduces.

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// --- Cholesky vs Gaussian elimination ---

// TestCholeskySolveDifferentialSPD property-tests lin.CholeskySolve
// against the seed solveLinearSystem on random SPD systems: same
// solution up to conditioning.
func TestCholeskySolveDifferentialSPD(t *testing.T) {
	check := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		// SPD by construction: A = MᵀM + (0.5+u)·n·I.
		m := make([]float64, n*n)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		ridge := (0.5 + rng.Float64()) * float64(n)
		a := lin.NewMat(n, n)
		ga := newMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m[k*n+i] * m[k*n+j]
				}
				if i == j {
					s += ridge
				}
				a.Set(i, j, s)
				ga[i][j] = s
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		want, okSeed := solveLinearSystem(ga, b)
		x := make([]float64, n)
		okLin := lin.CholeskySolve(a, b, x)
		if okSeed != okLin {
			t.Logf("seed=%d n=%d: solver disagreement seed=%v lin=%v", seed, n, okSeed, okLin)
			return false
		}
		if !okSeed {
			return true
		}
		if d := maxAbsDiff(want, x); d > 1e-8 {
			t.Logf("seed=%d n=%d: max solution diff %g", seed, n, d)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- ALS ---

func syntheticRatings(rng *rand.Rand, users, items, rank int) []Rating {
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
			if rng.Float64() < 0.5 {
				dot := 0.0
				for k := 0; k < rank; k++ {
					dot += trueU[u][k] * trueI[i][k]
				}
				ratings = append(ratings, Rating{User: u, Item: i, Value: dot})
			}
		}
	}
	return ratings
}

// TestALSDifferentialOneStep injects identical factor initializations
// into both solvers and compares the factors after one alternating
// half-step. The seed's full training loop initializes factors in
// map-iteration order, so only the solve itself — not end-to-end
// training — can be pinned exactly.
func TestALSDifferentialOneStep(t *testing.T) {
	const rank, lambda = 5, 0.07
	rng := rand.New(rand.NewSource(41))
	ratings := syntheticRatings(rng, 30, 20, rank)
	g := NewRatingsGraph(ratings)

	// Shared deterministic init, keyed by compacted row so both layouts
	// see the same values.
	users := lin.NewMat(g.NumUsers(), rank)
	items := lin.NewMat(g.NumItems(), rank)
	initRng := rand.New(rand.NewSource(99))
	for i := range users.Data {
		users.Data[i] = initRng.Float64()
	}
	for i := range items.Data {
		items.Data[i] = initRng.Float64()
	}
	userMap := make(map[int][]float64, g.NumUsers())
	itemMap := make(map[int][]float64, g.NumItems())
	for r, id := range g.userIDs {
		userMap[id] = append([]float64(nil), users.Row(r)...)
	}
	for r, id := range g.itemIDs {
		itemMap[id] = append([]float64(nil), items.Row(r)...)
	}
	userRatings := make(map[int][]Rating)
	for _, r := range ratings {
		userRatings[r.User] = append(userRatings[r.User], r)
	}

	solveFactors(g.byUser, users, items, lambda)
	seedSolveSide(userRatings, userMap, itemMap, rank, lambda,
		func(r Rating) int { return r.Item })

	for r, id := range g.userIDs {
		if d := maxAbsDiff(users.Row(r), userMap[id]); d > 1e-8 {
			t.Fatalf("user %d: factor diff %g after one half-step", id, d)
		}
	}
}

// TestALSDifferentialRMSE trains both implementations end-to-end on the
// same ratings and requires matching fit quality. (Exact factor equality
// is impossible: the seed initializes in map-iteration order.)
func TestALSDifferentialRMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ratings := syntheticRatings(rng, 40, 30, 4)
	rdd := Parallelize(ratings, 8)

	linModel, err := ALSTrain(NewRatingsGraph(ratings), 4, 10, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	seedModel, err := seedALS(rdd, 4, 10, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	linRMSE, seedRMSE := linModel.RMSE(ratings), seedModel.RMSE(ratings)
	if linRMSE > 0.05 || seedRMSE > 0.05 {
		t.Fatalf("poor fit: lin RMSE %.4f, seed RMSE %.4f", linRMSE, seedRMSE)
	}
	if math.Abs(linRMSE-seedRMSE) > 0.02 {
		t.Fatalf("fit quality diverged: lin RMSE %.4f vs seed RMSE %.4f", linRMSE, seedRMSE)
	}
}

// --- PageRank ---

// TestPageRankDifferentialNoDangling: on a graph where every vertex has
// an outgoing edge the dangling fix is a no-op, so the CSR kernel must
// reproduce the seed's shuffle-based ranks (up to summation order).
func TestPageRankDifferentialNoDangling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 150
	var edges []Pair[int, int]
	for v := 0; v < n; v++ {
		edges = append(edges, KV(v, (v+1)%n))
		for k := 0; k < 3; k++ {
			edges = append(edges, KV(v, rng.Intn(n)))
		}
	}
	rdd := Parallelize(edges, 8)

	got := pageRankByID(edges, 12, 0.85)
	want := seedPageRank(rdd, 12, 0.85)
	if len(got) != len(want) {
		t.Fatalf("rank count %d, want %d", len(got), len(want))
	}
	for v, w := range want {
		if d := math.Abs(got[v] - w); d > 1e-9 {
			t.Fatalf("vertex %d: rank %.12f vs seed %.12f (diff %g)", v, got[v], w, d)
		}
	}
}

// TestPageRankDifferentialDangling documents the seed bug the live
// kernel fixes: on a star graph (hub → k sinks) the seed drops the
// sinks' rank mass every iteration, while the live kernel redistributes
// it and conserves Σ ranks = |V| exactly.
func TestPageRankDifferentialDangling(t *testing.T) {
	const k = 20
	var edges []Pair[int, int]
	for v := 1; v <= k; v++ {
		edges = append(edges, KV(0, v))
	}
	rdd := Parallelize(edges, 4)
	n := float64(k + 1)

	sum := func(ranks map[int]float64) float64 {
		s := 0.0
		for _, r := range ranks {
			s += r
		}
		return s
	}
	got := pageRankByID(edges, 10, 0.85)
	if d := math.Abs(sum(got) - n); d > 1e-9*n {
		t.Fatalf("live kernel lost rank mass: Σ=%.9f want %.0f", sum(got), n)
	}
	seed := seedPageRank(rdd, 10, 0.85)
	if lost := n - sum(seed); lost < 0.5 {
		t.Fatalf("expected the seed kernel to lose dangling mass, Σ=%.9f (lost %.3f)", sum(seed), lost)
	}
}

// TestPageRankDifferentialSparseIDs: Graph.PageRank's slice is in
// ascending external-id order, and pageRankByID keys it back by id.
// Ids here are sparse and first appear out of order, so a wrong mapping
// would hand vertices each other's ranks.
func TestPageRankDifferentialSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	id := func(v int) int { return (v*37%n)*5 + 3 }
	var edges []Pair[int, int]
	for v := 0; v < n; v++ {
		edges = append(edges, KV(id(v), id((v+1)%n)))
		for k := 0; k < 2; k++ {
			edges = append(edges, KV(id(v), id(rng.Intn(v/3+1))))
		}
	}
	rdd := Parallelize(edges, 8)

	got := pageRankByID(edges, 12, 0.85)
	want := seedPageRank(rdd, 12, 0.85)
	if len(got) != len(want) {
		t.Fatalf("rank count %d, want %d", len(got), len(want))
	}
	for v, w := range want {
		r, ok := got[v]
		if !ok {
			t.Fatalf("vertex %d missing from the ranks", v)
		}
		if d := math.Abs(r - w); d > 1e-9 {
			t.Fatalf("vertex %d: rank %.12f vs seed %.12f (diff %g)", v, r, w, d)
		}
	}
}

// pageRankByID runs Graph.PageRank over the edge list and keys every
// vertex's rank by its external id: entry i of the slice belongs to the
// i-th smallest id.
func pageRankByID(edges []Pair[int, int], iterations int, damping float64) map[int]float64 {
	g := NewGraph(edges)
	out := make(map[int]float64, g.NumVertices())
	for i, r := range g.PageRank(iterations, damping) {
		out[g.ids[i]] = r
	}
	return out
}

// refPageRank is the pull formulation written out sequentially: every
// vertex sums rank/outdeg over its in-edges in input edge order.
func refPageRank(edges []Pair[int, int], n, iterations int, damping float64) []float64 {
	outDeg := make([]int, n)
	in := make([][]int, n)
	for _, e := range edges {
		outDeg[e.Key]++
		in[e.Value] = append(in[e.Value], e.Key)
	}
	ranks, next := make([]float64, n), make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
	}
	for it := 0; it < iterations; it++ {
		dangling := 0.0
		for v, d := range outDeg {
			if d == 0 {
				dangling += ranks[v]
			}
		}
		base := (1 - damping) + damping*dangling/float64(n)
		for v := range next {
			sum := 0.0
			for _, u := range in[v] {
				sum += ranks[u] / float64(outDeg[u])
			}
			next[v] = base + damping*sum
		}
		ranks, next = next, ranks
	}
	return ranks
}

// TestPageRankBitIdenticalAcrossGOMAXPROCS: every rank is one sequential
// sum over the vertex's in-edges, so the parallel kernel reproduces the
// sequential reference to the bit whatever the scheduling.
func TestPageRankBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	const n = 3000
	edges := webEdges(rand.New(rand.NewSource(29)), n)
	// A few sinks, so the dangling redistribution is part of the check.
	for k := range edges {
		if v := edges[k].Key; v%97 == 0 {
			edges[k].Key = (v + 1) % n
		}
	}
	want := refPageRank(edges, n, 10, 0.85)
	g := NewGraph(edges)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := g.PageRank(10, 0.85)
		runtime.GOMAXPROCS(prev)
		if len(got) != n {
			t.Fatalf("GOMAXPROCS=%d: %d ranks, want %d", procs, len(got), n)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("GOMAXPROCS=%d: vertex %d rank %v, reference %v", procs, v, got[v], want[v])
			}
		}
	}
}

// --- Logistic regression ---

func syntheticLabeled(rng *rand.Rand, n, dim int) []LabeledPoint {
	pts := make([]LabeledPoint, n)
	for i := range pts {
		label := i % 2
		shift := float64(label*2-1) * 1.25
		f := make([]float64, dim)
		for j := range f {
			f[j] = rng.NormFloat64() + shift
		}
		pts[i] = LabeledPoint{Features: f, Label: label}
	}
	return pts
}

func TestLogRegressionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := syntheticLabeled(rng, 800, 8)

	got, err := LogisticRegression(pointsOf(pts), 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedLogisticRegression(Parallelize(pts, 8), 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("weights diverged from seed kernel: max diff %g", d)
	}
}

// TestMLChunksMatchPartitions pins the kernels' split: for every n the
// chunk ranges are exactly Parallelize(·, 8)'s partitions, so the
// per-chunk tables merge in the grouping and order of the seed's
// per-partition Aggregate.
func TestMLChunksMatchPartitions(t *testing.T) {
	for n := 0; n <= 64; n++ {
		r := Parallelize(ints(n), 8)
		parts := mlParts(n)
		if parts != r.numPartitions {
			t.Fatalf("n=%d: %d chunks, Parallelize made %d partitions", n, parts, r.numPartitions)
		}
		for c := 0; c < parts; c++ {
			var part []int
			r.iterate(c, func(x int) bool { part = append(part, x); return true })
			if chunk := ints(n)[c*n/parts : (c+1)*n/parts]; !slices.Equal(part, chunk) {
				t.Fatalf("n=%d chunk %d: rows %v, partition holds %v", n, c, chunk, part)
			}
		}
	}
}

// --- Naive Bayes ---

func TestNaiveBayesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, dim, classes = 1200, 12, 3
	pts := make([]LabeledPoint, n)
	for i := range pts {
		label := i % classes
		f := make([]float64, dim)
		for j := range f {
			base := 1.0
			if j%classes == label {
				base = 6.0
			}
			f[j] = base + float64(rng.Intn(3))
		}
		pts[i] = LabeledPoint{Features: f, Label: label}
	}
	got, err := NaiveBayes(pointsOf(pts), classes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedNaiveBayes(Parallelize(pts, 8), classes, dim)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got.ClassLogPrior, want.ClassLogPrior); d > 1e-12 {
		t.Fatalf("class log-priors diverged: max diff %g", d)
	}
	for c := 0; c < classes; c++ {
		if d := maxAbsDiff(got.FeatureLogPr[c], want.FeatureLogPr[c]); d > 1e-12 {
			t.Fatalf("class %d feature log-probs diverged: max diff %g", c, d)
		}
	}
}

// --- Chi-square ---

func TestChiSquareDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, dim = 1000, 10
	pts := make([]LabeledPoint, n)
	for i := range pts {
		label := i % 2
		f := make([]float64, dim)
		f[0] = float64(label)
		if rng.Float64() < 0.1 {
			f[0] = float64(1 - label)
		}
		for j := 1; j < dim; j++ {
			f[j] = float64(rng.Intn(4))
		}
		pts[i] = LabeledPoint{Features: f, Label: label}
	}
	got := ChiSquare(pointsOf(pts), 2, 4)
	want := seedChiSquare(Parallelize(pts, 8), 2, dim, 4)
	// Pure integer counting feeding identical statistic arithmetic: the
	// results must agree to the last bit (tolerance only guards exotic
	// FMA contraction).
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("chi-square stats diverged: max diff %g", d)
	}
}

// --- Decision tree ---

func sameTree(a, b *TreeNode) bool {
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return a.Prediction == b.Prediction
	}
	return a.Feature == b.Feature && a.Threshold == b.Threshold &&
		sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// TestDecTreeDifferential: index-subset recursion over the flat matrix
// performs the identical histogram arithmetic in the identical order (the
// in-place partition is stable, so every node sees its points in the
// seed's order), so the fitted trees must match node for node.
func TestDecTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := syntheticLabeled(rng, 900, 6)

	got, err := DecisionTree(pointsOf(pts), 2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedDecisionTree(Parallelize(pts, 8), 2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTree(got, want) {
		t.Fatal("trees diverged")
	}
}

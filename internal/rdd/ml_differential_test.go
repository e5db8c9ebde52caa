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
// seeded inputs. Counting kernels must agree bit for bit;
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

	// Shared deterministic init, keyed by id (the row) so both layouts see
	// the same values.
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
	for id := range g.NumUsers() {
		userMap[id] = append([]float64(nil), users.Row(id)...)
	}
	for id := range g.NumItems() {
		itemMap[id] = append([]float64(nil), items.Row(id)...)
	}
	userRatings := make(map[int][]Rating)
	for _, r := range ratings {
		userRatings[r.User] = append(userRatings[r.User], r)
	}

	solveFactors(g.byUser, users, items, lambda)
	seedSolveSide(userRatings, userMap, itemMap, rank, lambda,
		func(r Rating) int { return r.Item })

	for id := range g.NumUsers() {
		if d := maxAbsDiff(users.Row(id), userMap[id]); d > 1e-8 {
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

	g := NewRatingsGraph(ratings)
	linModel, err := ALSTrain(g, 4, 10, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	seedModel, err := seedALS(rdd, 4, 10, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	linRMSE, seedRMSE := g.RMSE(linModel), seedModel.RMSE(ratings)
	if linRMSE > 0.05 || seedRMSE > 0.05 {
		t.Fatalf("poor fit: lin RMSE %.4f, seed RMSE %.4f", linRMSE, seedRMSE)
	}
	if math.Abs(linRMSE-seedRMSE) > 0.02 {
		t.Fatalf("fit quality diverged: lin RMSE %.4f vs seed RMSE %.4f", linRMSE, seedRMSE)
	}
}

// refALSTrain is ALSTrain with the per-rating accumulation the fused
// lin.NormalEq replaced: lin.Syr(a, 1, y) then lin.Axpy(b, y, x) for
// every rating of a row, serially. Initialization, ridge and solve are
// ALSTrain's own.
func refALSTrain(g *RatingsGraph, rank, iterations int, lambda float64, seed int64) (users, items *lin.Mat) {
	rng := rand.New(rand.NewSource(seed))
	users, items = lin.NewMat(g.NumUsers(), rank), lin.NewMat(g.NumItems(), rank)
	for i := range users.Data {
		users.Data[i] = rng.Float64()
	}
	for i := range items.Data {
		items.Data[i] = rng.Float64()
	}
	solve := func(adj *lin.CSR, target, other *lin.Mat) {
		for u := 0; u < adj.NumRows(); u++ {
			cols, vals := adj.RowCols(u), adj.RowVals(u)
			a := lin.NewMat(rank, rank)
			x := target.Row(u)
			clear(x)
			for k, c := range cols {
				y := other.Row(int(c))
				lin.Syr(a, 1, y)
				lin.Axpy(vals[k], y, x)
			}
			for i := 0; i < rank; i++ {
				a.Data[i*rank+i] += lambda * float64(len(cols))
			}
			if !lin.CholeskySolve(a, x, x) {
				clear(x)
			}
		}
	}
	for it := 0; it < iterations; it++ {
		solve(g.byUser, users, items)
		solve(g.byItem, items, users)
	}
	return users, items
}

// firstBitDiff returns the first index where a and b differ in any bit,
// or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestALSTrainDifferentialSyrAxpyBitIdentical pins ALSTrain's factor
// matrices bit for bit against the per-rating Syr+Axpy reference, at ranks
// below, at and above Axpy's four-way unroll, and across executor widths.
func TestALSTrainDifferentialSyrAxpyBitIdentical(t *testing.T) {
	for _, rank := range []int{1, 3, 4, 8, 10} {
		g := NewRatingsGraph(syntheticRatings(rand.New(rand.NewSource(int64(60+rank))), 50, 35, rank))
		wantU, wantI := refALSTrain(g, rank, 4, 0.03, 7)
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			m, err := ALSTrain(g, rank, 4, 0.03, 7)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstBitDiff(m.Users.Data, wantU.Data); i >= 0 {
				t.Fatalf("rank %d GOMAXPROCS=%d: Users[%d] = %v, reference %v", rank, procs, i, m.Users.Data[i], wantU.Data[i])
			}
			if i := firstBitDiff(m.Items.Data, wantI.Data); i >= 0 {
				t.Fatalf("rank %d GOMAXPROCS=%d: Items[%d] = %v, reference %v", rank, procs, i, m.Items.Data[i], wantI.Data[i])
			}
		}
	}
}

// ratingsRMSE is the RMSE as a pass over the input ratings: each
// prediction reads the rows of its user and item ids.
func ratingsRMSE(m *ALSModel, ratings []Rating) float64 {
	sum := 0.0
	for _, r := range ratings {
		d := lin.Dot(m.Users.Row(r.User), m.Items.Row(r.Item)) - r.Value
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(ratings)))
}

// TestALSGraphRMSEDifferentialRatingsOrder: on the als workload's shape,
// ratings generated user-major, the CSR walk sums in input order, so the
// graph RMSE equals the ratings-order pass exactly.
func TestALSGraphRMSEDifferentialRatingsOrder(t *testing.T) {
	ratings := syntheticRatings(rand.New(rand.NewSource(23)), 60, 40, 4)
	g := NewRatingsGraph(ratings)
	m, err := ALSTrain(g, 4, 8, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, want := g.RMSE(m), ratingsRMSE(m, ratings)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("graph RMSE %v, ratings-order RMSE %v", got, want)
	}
	if got > 0.15 {
		t.Fatalf("RMSE %.4f: the fit itself is off", got)
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

	got := pageRank(t, edges, 12, 0.85)
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

	got := 0.0
	for _, r := range pageRank(t, edges, 10, 0.85) {
		got += r
	}
	if d := math.Abs(got - n); d > 1e-9*n {
		t.Fatalf("live kernel lost rank mass: Σ=%.9f want %.0f", got, n)
	}
	seed := 0.0
	for _, r := range seedPageRank(rdd, 10, 0.85) {
		seed += r
	}
	if lost := n - seed; lost < 0.5 {
		t.Fatalf("expected the seed kernel to lose dangling mass, Σ=%.9f (lost %.3f)", seed, lost)
	}
}

// TestPageRankDifferentialPermutedIDs: Graph.PageRank's slice is indexed
// by vertex id. Ids here first appear out of order (a permutation of
// 0 … n−1), so a kernel that numbered vertices in order of appearance
// would hand vertices each other's ranks.
func TestPageRankDifferentialPermutedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	id := func(v int) int { return v * 37 % n }
	var edges []Pair[int, int]
	for v := 0; v < n; v++ {
		edges = append(edges, KV(id(v), id((v+1)%n)))
		for k := 0; k < 2; k++ {
			edges = append(edges, KV(id(v), id(rng.Intn(v/3+1))))
		}
	}
	rdd := Parallelize(edges, 8)

	got := pageRank(t, edges, 12, 0.85)
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

// pageRank runs Graph.PageRank over the edge list and fails the test on
// an error.
func pageRank(t *testing.T, edges []Pair[int, int], iterations int, damping float64) []float64 {
	t.Helper()
	ranks, err := NewGraph(edges).PageRank(iterations, damping)
	if err != nil {
		t.Fatalf("PageRank: %v", err)
	}
	return ranks
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
		got, err := g.PageRank(10, 0.85)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: PageRank: %v", procs, err)
		}
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

// FuzzPageRank checks Graph.PageRank against refPageRank bit for bit on
// random graphs: up to 256 distinct ids, either 0 … k−1 or (the "gaps"
// bit) drawn from [0, 4k) so the ids no edge names are isolated sinks, up
// to 1023 edges whose sources are drawn from the first k/8 of the ids, so
// the rest can only be sinks, 0–12 iterations, and a damping factor that
// is 0.85 or random. The reference runs over 1 + the largest id vertices.
func FuzzPageRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint32) {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + int(byte(shape))
		ne := int(shape >> 8 & 1023)
		iterations := int(shape>>18&15) % 13
		sources := max(1, nv*int(shape>>22&7+1)/8)
		gaps, randomDamping := shape>>25&1 == 1, shape>>26&1 == 1
		damping := 0.85
		if randomDamping {
			damping = rng.Float64()
		}
		pool := make([]int, nv)
		for i := range pool {
			pool[i] = i
			if gaps {
				pool[i] = rng.Intn(4 * nv)
			}
		}
		edges := make([]Pair[int, int], ne)
		n := 0
		for k := range edges {
			edges[k] = KV(pool[rng.Intn(sources)], pool[rng.Intn(nv)])
			n = max(n, edges[k].Key+1, edges[k].Value+1)
		}
		want := refPageRank(edges, n, iterations, damping)

		got, err := NewGraph(edges).PageRank(iterations, damping)
		if err != nil {
			t.Fatalf("PageRank: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d ranks, reference %d", len(got), len(want))
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%d vertices, %d edges, %d iterations, damping %v: vertex %d rank %v, reference %v",
					n, ne, iterations, damping, v, got[v], want[v])
			}
		}
	})
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

// syntheticCounts is syntheticLabeled for the byte-coded kernels: two
// classes whose integer features 0–7 lean toward the label's half.
func syntheticCounts(rng *rand.Rand, n, dim int) []LabeledPoint {
	pts := make([]LabeledPoint, n)
	for i := range pts {
		label := i % 2
		f := make([]float64, dim)
		for j := range f {
			f[j] = float64(label*4 + rng.Intn(4))
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

// TestNaiveBayesDifferential: counting from the byte-coded set into the
// same per-chunk float64 tables sums the seed's integer values exactly,
// and the log-probabilities are the seed's arithmetic, so the model must
// match the seed's to the last bit.
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
	got, err := NaiveBayes(countsOf(pts), classes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedNaiveBayes(Parallelize(pts, 8), classes, dim)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(got.ClassLogPrior, want.ClassLogPrior); i >= 0 || len(got.ClassLogPrior) != classes {
		t.Fatalf("class log-prior %d = %v, seed %v", i, got.ClassLogPrior, want.ClassLogPrior)
	}
	for c := 0; c < classes; c++ {
		if i := firstBitDiff(got.FeatureLogPr[c], want.FeatureLogPr[c]); i >= 0 || len(got.FeatureLogPr[c]) != dim {
			t.Fatalf("class %d feature log-prob %d = %v, seed %v", c, i, got.FeatureLogPr[c], want.FeatureLogPr[c])
		}
	}
}

// --- Chi-square ---

// TestChiSquareDifferential: pure integer counting feeding the seed's
// statistic arithmetic, so the statistics must agree to the last bit.
// The last feature draws codes 0–6 against 4 buckets: codes ≥ 4 must fold
// into the last bucket, as the seed's clamp does.
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
		for j := 1; j < dim-1; j++ {
			f[j] = float64(rng.Intn(4))
		}
		f[dim-1] = float64(rng.Intn(7))
		pts[i] = LabeledPoint{Features: f, Label: label}
	}
	got, err := ChiSquare(countsOf(pts), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := seedChiSquare(Parallelize(pts, 8), 2, dim, 4)
	if i := firstBitDiff(got, want); i >= 0 || len(got) != dim {
		t.Fatalf("chi-square stat %d = %v, seed %v", i, got, want)
	}
}

// --- Accuracy ---

// TestAccuracyDifferential: the chunked hit count equals a serial count
// for sizes below, at and above the 8-chunk split, at GOMAXPROCS 1 and 2.
func TestAccuracyDifferential(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 7, 8, 9, 1000} {
			rng := rand.New(rand.NewSource(int64(n)))
			labels := make([]uint8, n)
			preds := make([]int, n)
			correct := 0
			for i := range labels {
				labels[i], preds[i] = uint8(rng.Intn(3)), rng.Intn(3)
				if preds[i] == int(labels[i]) {
					correct++
				}
			}
			got, err := Accuracy(labels, func(i int) int { return preds[i] })
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d n=%d: %v", procs, n, err)
			}
			if want := float64(correct) / float64(n); got != want {
				t.Fatalf("GOMAXPROCS=%d n=%d: accuracy %v, serial count %v", procs, n, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if _, err := Accuracy(nil, func(int) int { return 0 }); err != ErrEmpty {
		t.Fatalf("Accuracy over no labels: err %v, want ErrEmpty", err)
	}
}

// FuzzDotCounts checks the byte-row dot NaiveBayesModel.Predict scores
// with against lin.Dot over the row converted to float64, bit for bit.
// The seed corpus covers rows of 0, 1, 3, 4, 16 and 17 bytes: empty,
// below, at and above the 4-way unroll.
func FuzzDotCounts(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 16, 17} {
		row := make([]byte, n)
		for i := range row {
			row[i] = byte(i*37 + n)
		}
		f.Add(row, int64(n))
	}
	f.Fuzz(func(t *testing.T, row []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		w, conv := make([]float64, len(row)), make([]float64, len(row))
		for i, b := range row {
			// Weights spread over ±2^20 so cancellation and rounding occur.
			w[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
			conv[i] = float64(b)
		}
		if got, want := dotCounts(row, w), lin.Dot(conv, w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d bytes: dotCounts %v, lin.Dot %v", len(row), got, want)
		}
	})
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

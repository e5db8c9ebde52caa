package renaissance

import (
	"fmt"
	"math"
	"math/rand"

	"renaissance/internal/core"
	"renaissance/internal/rdd"
)

func init() {
	register("als",
		"Alternating Least Squares matrix factorization over a CSR rating graph.",
		[]string{"data-parallel", "compute-bound"}, newALS)
	register("chi-square",
		"Parallel chi-square feature test over byte-coded categories.",
		[]string{"data-parallel", "machine learning"}, newChiSquare)
	register("dec-tree",
		"Classification decision tree with a parallel histogram split search.",
		[]string{"data-parallel", "machine learning"}, newDecTree)
	register("log-regression",
		"Logistic regression by parallel gradient descent.",
		[]string{"data-parallel", "machine learning"}, newLogRegression)
	register("movie-lens",
		"ALS-based recommender over a synthetic ratings matrix.",
		[]string{"data-parallel", "compute-bound"}, newMovieLens)
	register("naive-bayes",
		"Multinomial naive Bayes over byte-coded feature counts.",
		[]string{"data-parallel", "machine learning"}, newNaiveBayes)
	register("page-rank",
		"PageRank over a synthetic web graph in CSR form.",
		[]string{"data-parallel", "atomics"}, newPageRank)
}

// syntheticPoints generates a two-class Gaussian dataset with the classes
// shifted symmetrically about the origin, so a bias-free linear model (the
// logistic regression kernel has no intercept) can separate them.
func syntheticPoints(cfg core.Config, n, dim int, stream string) *rdd.Points {
	rng := cfg.Rand(stream)
	pts := rdd.NewPoints(n, dim)
	for i := 0; i < n; i++ {
		label := i % 2
		shift := float64(label*2-1) * 1.25
		f := pts.X.Row(i)
		for j := range f {
			f[j] = rng.NormFloat64() + shift
		}
		pts.Labels[i] = uint8(label)
	}
	return pts
}

// --- als ---

type alsWorkload struct {
	graph *rdd.RatingsGraph
	rank  int
	rmse  float64
}

func newALS(cfg core.Config) (core.Workload, error) {
	const rank = 4
	// The rating graph is grouped into CSR once at setup; the measured
	// iteration is pure alternating solves (the seed re-grouped the
	// ratings inside every ALS call).
	return &alsWorkload{graph: rdd.NewRatingsGraph(alsRatings(cfg, rank)), rank: rank}, nil
}

// alsRatings draws the als workload's ratings: each (user, item) pair is
// rated with probability 0.4 by the dot product of hidden rank-dimensional
// factors. Ids are rows, so a user or item that drew no rating would be
// an empty row; at rbench's size every id draws one
// (TestSparkGeneratorsNameEveryID).
func alsRatings(cfg core.Config, rank int) []rdd.Rating {
	rng := cfg.Rand("als")
	users, items := cfg.Scale(60), cfg.Scale(40)
	trueU := make([][]float64, users)
	trueI := make([][]float64, items)
	for u := range trueU {
		trueU[u] = randomVec(rng, rank)
	}
	for i := range trueI {
		trueI[i] = randomVec(rng, rank)
	}
	var ratings []rdd.Rating
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.4 {
				dot := 0.0
				for k := 0; k < rank; k++ {
					dot += trueU[u][k] * trueI[i][k]
				}
				ratings = append(ratings, rdd.Rating{User: u, Item: i, Value: dot})
			}
		}
	}
	return ratings
}

func randomVec(rng interface{ Float64() float64 }, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func (w *alsWorkload) RunIteration() error {
	model, err := rdd.ALSTrain(w.graph, w.rank, 8, 0.01, 7)
	if err != nil {
		return err
	}
	w.rmse = w.graph.RMSE(model)
	return nil
}

func (w *alsWorkload) Validate() error {
	if w.rmse > 0.15 {
		return fmt.Errorf("als: RMSE %.4f exceeds 0.15", w.rmse)
	}
	return nil
}

// --- chi-square ---

type chiSquareWorkload struct {
	points *rdd.Counts
	stats  []float64
}

func newChiSquare(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("chi-square")
	n := cfg.Scale(4000)
	const dim = 12
	pts := rdd.NewCounts(n, dim)
	for i := 0; i < n; i++ {
		label := i % 2
		f := pts.Row(i)
		// Feature 0 is strongly label-dependent; the rest are noise.
		f[0] = uint8(label)
		if rng.Float64() < 0.1 {
			f[0] = uint8(1 - label)
		}
		for j := 1; j < dim; j++ {
			f[j] = uint8(rng.Intn(4))
		}
		pts.Labels[i] = uint8(label)
	}
	return &chiSquareWorkload{points: pts}, nil
}

func (w *chiSquareWorkload) RunIteration() error {
	stats, err := rdd.ChiSquare(w.points, 2, 4)
	if err != nil {
		return err
	}
	w.stats = stats
	return nil
}

func (w *chiSquareWorkload) Validate() error {
	if len(w.stats) == 0 {
		return fmt.Errorf("chi-square: no statistics computed")
	}
	for j := 1; j < len(w.stats); j++ {
		if w.stats[0] <= w.stats[j] {
			return fmt.Errorf("chi-square: informative feature (%.1f) did not dominate noise feature %d (%.1f)",
				w.stats[0], j, w.stats[j])
		}
	}
	return nil
}

// --- dec-tree ---

type decTreeWorkload struct {
	points *rdd.Points
	acc    float64
}

func newDecTree(cfg core.Config) (core.Workload, error) {
	return &decTreeWorkload{points: syntheticPoints(cfg, cfg.Scale(3000), 8, "dec-tree")}, nil
}

func (w *decTreeWorkload) RunIteration() error {
	tree, err := rdd.DecisionTree(w.points, 2, 6, 4)
	if err != nil {
		return err
	}
	w.acc, err = rdd.Accuracy(w.points.Labels, func(i int) int {
		return tree.Predict(w.points.X.Row(i))
	})
	return err
}

func (w *decTreeWorkload) Validate() error {
	if w.acc < 0.75 {
		return fmt.Errorf("dec-tree: accuracy %.3f below 0.75", w.acc)
	}
	return nil
}

// --- log-regression ---

type logRegWorkload struct {
	points *rdd.Points
	acc    float64
}

func newLogRegression(cfg core.Config) (core.Workload, error) {
	return &logRegWorkload{points: syntheticPoints(cfg, cfg.Scale(4000), 10, "log-regression")}, nil
}

func (w *logRegWorkload) RunIteration() error {
	weights, err := rdd.LogisticRegression(w.points, 40, 1.0)
	if err != nil {
		return err
	}
	w.acc, err = rdd.Accuracy(w.points.Labels, func(i int) int {
		if rdd.PredictLogistic(weights, w.points.X.Row(i)) > 0.5 {
			return 1
		}
		return 0
	})
	return err
}

func (w *logRegWorkload) Validate() error {
	if w.acc < 0.8 {
		return fmt.Errorf("log-regression: accuracy %.3f below 0.8", w.acc)
	}
	return nil
}

// --- movie-lens ---

// movieLensQueried is how many users movie-lens asks for recommendations
// each iteration: users 0 .. movieLensQueried-1.
const movieLensQueried = 10

type movieLensWorkload struct {
	graph *rdd.RatingsGraph
	rated [movieLensQueried]map[int]bool // the queried users' rated movies
	recs  int
}

func newMovieLens(cfg core.Config) (core.Workload, error) {
	ratings := movieLensRatings(cfg)
	w := &movieLensWorkload{graph: rdd.NewRatingsGraph(ratings)}
	for u := range w.rated {
		w.rated[u] = make(map[int]bool)
	}
	for _, r := range ratings {
		if r.User < movieLensQueried {
			w.rated[r.User][r.Item] = true
		}
	}
	return w, nil
}

// movieLensRatings draws the movie-lens workload's ratings: each user rates
// each movie with probability 0.3, and movie u mod movies always, so every
// user and (with users >= movies) every movie id is named.
func movieLensRatings(cfg core.Config) []rdd.Rating {
	rng := cfg.Rand("movie-lens")
	users, movies := cfg.Scale(50), cfg.Scale(35)
	if users < 12 {
		users = 12
	}
	if movies < 9 {
		movies = 9
	}
	var ratings []rdd.Rating
	for u := 0; u < users; u++ {
		for m := 0; m < movies; m++ {
			if rng.Float64() < 0.3 || m == u%movies {
				// Preference structure: users like movies congruent mod 3.
				base := 2.0
				if u%3 == m%3 {
					base = 4.5
				}
				ratings = append(ratings, rdd.Rating{User: u, Item: m, Value: base + rng.Float64()})
			}
		}
	}
	return ratings
}

func (w *movieLensWorkload) RunIteration() error {
	model, err := rdd.ALSTrain(w.graph, 4, 6, 0.05, 11)
	if err != nil {
		return err
	}
	w.recs = 0
	for u := 0; u < movieLensQueried; u++ {
		w.recs += len(model.Recommend(u, w.rated[u], 5))
	}
	return nil
}

func (w *movieLensWorkload) Validate() error {
	if w.recs == 0 {
		return fmt.Errorf("movie-lens: no recommendations produced")
	}
	return nil
}

// --- naive-bayes ---

type naiveBayesWorkload struct {
	points *rdd.Counts
	acc    float64
}

func newNaiveBayes(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("naive-bayes")
	n := cfg.Scale(5000)
	const dim = 16
	pts := rdd.NewCounts(n, dim)
	for i := 0; i < n; i++ {
		label := i % 3
		f := pts.Row(i)
		for j := range f {
			base := 1
			if j%3 == label {
				base = 6
			}
			f[j] = uint8(base + rng.Intn(3))
		}
		pts.Labels[i] = uint8(label)
	}
	return &naiveBayesWorkload{points: pts}, nil
}

func (w *naiveBayesWorkload) RunIteration() error {
	model, err := rdd.NaiveBayes(w.points, 3)
	if err != nil {
		return err
	}
	w.acc, err = rdd.Accuracy(w.points.Labels, func(i int) int {
		return model.Predict(w.points.Row(i))
	})
	return err
}

func (w *naiveBayesWorkload) Validate() error {
	if w.acc < 0.9 {
		return fmt.Errorf("naive-bayes: accuracy %.3f below 0.9", w.acc)
	}
	return nil
}

// --- page-rank ---

type pageRankWorkload struct {
	graph *rdd.Graph
	n     int
	ranks []float64 // by vertex id: every id in [0, n) has an edge
}

func newPageRank(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(600)
	// The web graph is built into a CSR edge array once at setup; the
	// measured iteration is pure rank propagation (the seed re-derived
	// the link groups with a shuffle every iteration).
	return &pageRankWorkload{graph: rdd.NewGraph(pageRankEdges(cfg.Rand("page-rank"), n)), n: n}, nil
}

// pageRankEdges draws the page-rank workload's web graph over vertices
// 0 … n−1: every vertex links to its successor (strong connectivity, and
// every id named) plus a few preferential links toward low-numbered "hub"
// vertices.
func pageRankEdges(rng *rand.Rand, n int) []rdd.Pair[int, int] {
	edges := make([]rdd.Pair[int, int], 0, 4*n)
	for v := 0; v < n; v++ {
		edges = append(edges, rdd.KV(v, (v+1)%n))
		for k := 0; k < 3; k++ {
			edges = append(edges, rdd.KV(v, rng.Intn(v/4+1)))
		}
	}
	return edges
}

func (w *pageRankWorkload) RunIteration() (err error) {
	w.ranks, err = w.graph.PageRank(10, 0.85)
	return err
}

func (w *pageRankWorkload) Validate() error {
	if len(w.ranks) != w.n {
		return fmt.Errorf("page-rank: %d ranked vertices, want %d", len(w.ranks), w.n)
	}
	total := 0.0
	for _, r := range w.ranks {
		total += r
	}
	// Rank mass is conserved exactly now that dangling mass is
	// redistributed (the seed kernel dropped it, which is why this check
	// used to need a 1% tolerance).
	if math.Abs(total-float64(w.n)) > 1e-6*float64(w.n) {
		return fmt.Errorf("page-rank: total rank %.6f deviates from %d", total, w.n)
	}
	// Hub vertices must outrank the median.
	if w.ranks[0] <= 1.0 {
		return fmt.Errorf("page-rank: hub rank %.3f not above average", w.ranks[0])
	}
	return nil
}

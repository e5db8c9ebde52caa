package rdd

import (
	"math"
	"math/rand"
	"sort"

	"renaissance/internal/lin"
	"renaissance/internal/metrics"
)

// Rating is one (user, item, rating) observation, the input of the als and
// movie-lens benchmarks.
type Rating struct {
	User, Item int
	Value      float64
}

// RatingsGraph is the bipartite user–item rating graph pre-grouped into
// CSR form, built once at workload setup. The seed kernel re-grouped the
// ratings on every ALS call — GroupByKey + CollectAsMap rebuilt two
// hash-maps-of-slices per benchmark iteration — where the alternating
// solves only ever need a per-id adjacency scan. Here each side is three
// flat arrays (lin.CSR) whose rows are the ids: byUser's row u lists
// (item, rating) pairs, byItem's row i lists (user, rating) pairs, and
// factor-matrix row r belongs to id r, so every computation over the
// graph is deterministic.
type RatingsGraph struct {
	byUser, byItem *lin.CSR
}

// NewRatingsGraph groups the ratings into both CSR orientations. Call it
// once per dataset (benchmark setup), not per training run. User and item
// ids are rows: there are 1 + the largest user id users and 1 + the
// largest item id items, and an id that no rating names has an empty row.
// An id outside [0, math.MaxInt32) panics.
func NewRatingsGraph(ratings []Rating) *RatingsGraph {
	// The two CSR builds are the grouping work the seed re-did every
	// iteration; count its allocations where they now happen — once, at
	// setup.
	metrics.IncObject()
	metrics.AddArray(2 * 3) // two CSRs, three flat arrays each
	users := make([]int32, len(ratings))
	items := make([]int32, len(ratings))
	vals := make([]float64, len(ratings))
	nu, ni := 0, 0
	for k, r := range ratings {
		users[k], items[k], vals[k] = row("user", r.User), row("item", r.Item), r.Value
		nu, ni = max(nu, int(users[k])+1), max(ni, int(items[k])+1)
	}
	return &RatingsGraph{
		byUser: lin.NewCSR(nu, users, items, vals),
		byItem: lin.NewCSR(ni, items, users, vals),
	}
}

// NumUsers returns 1 + the largest user id.
func (g *RatingsGraph) NumUsers() int { return g.byUser.NumRows() }

// NumItems returns 1 + the largest item id.
func (g *RatingsGraph) NumItems() int { return g.byItem.NumRows() }

// NumRatings returns the number of observations.
func (g *RatingsGraph) NumRatings() int { return g.byUser.NumEdges() }

// RMSE computes the root-mean-square error of the model on the graph's
// own ratings: one Dot per byUser entry, summed in user order, then each
// row's input order (input order, for user-major input).
func (g *RatingsGraph) RMSE(m *ALSModel) float64 {
	n := g.NumRatings()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for u := 0; u < g.byUser.NumRows(); u++ {
		x := m.Users.Row(u)
		vals := g.byUser.RowVals(u)
		for k, c := range g.byUser.RowCols(u) {
			d := lin.Dot(x, m.Items.Row(int(c))) - vals[k]
			sum += d * d
		}
	}
	return math.Sqrt(sum / float64(n))
}

// ALSModel holds the fitted latent factors as dense id-indexed flat
// matrices: row r of Users/Items is the factor vector of user/item id r
// (the seed stored map[int][]float64 — one pointer-chased allocation per
// id). An id that no rating names has a zero row.
type ALSModel struct {
	Users, Items *lin.Mat
}

// ALSTrain fits latent factors by alternating least squares with L2
// regularization over a pre-grouped rating graph — the als benchmark
// kernel (Table 1: "data-parallel, compute-bound"). Factor rows start in
// id order from the seeded rng (the seed kernel used map order),
// and every iteration rewrites both factor matrices in place: holding one
// side fixed, each row of the other solves its normal equations
// (Yᵀ·Y + λ·nᵢ·I)·x = Yᵀ·b, SPD since λ·nᵢ > 0, in parallel across rows
// (solveFactors). Steady-state iterations allocate nothing beyond the
// executor's fixed fork–join overhead.
func ALSTrain(g *RatingsGraph, rank, iterations int, lambda float64, seed int64) (*ALSModel, error) {
	if g == nil || g.NumRatings() == 0 {
		return nil, ErrEmpty
	}
	rng := rand.New(rand.NewSource(seed))
	metrics.AddArray(2) // the two factor matrices
	model := &ALSModel{
		Users: lin.NewMat(g.NumUsers(), rank),
		Items: lin.NewMat(g.NumItems(), rank),
	}
	for i := range model.Users.Data {
		model.Users.Data[i] = rng.Float64()
	}
	for i := range model.Items.Data {
		model.Items.Data[i] = rng.Float64()
	}
	for it := 0; it < iterations; it++ {
		if err := solveFactors(g.byUser, model.Users, model.Items, lambda); err != nil {
			return nil, err
		}
		if err := solveFactors(g.byItem, model.Items, model.Users, lambda); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// solveFactors recomputes every row of target from its normal equations,
// holding other fixed: row u accumulates A = Σ y·yᵀ (lower triangle) and
// x = Σ b·y over its CSR adjacency in one lin.NormalEq call, adds the λ·n
// ridge, and Cholesky-solves in place — x accumulates directly in
// target's row, so the only working memory is the rank×rank scratch
// matrix, pooled per executor chunk. Rows are independent (target and
// other are distinct matrices), so the parallel-for needs no
// synchronization beyond the join barrier, and a chunk's retry rewrites
// exactly the rows its failed attempt touched.
func solveFactors(adj *lin.CSR, target, other *lin.Mat, lambda float64) error {
	rank := target.Cols
	return forRetry(adj.NumRows(), 0, func(lo, hi int) {
		s := lin.GetScratch()
		edges := 0
		for u := lo; u < hi; u++ {
			cols := adj.RowCols(u)
			edges += len(cols)
			a := s.MatN(rank)
			x := target.Row(u)
			clear(x)
			lin.NormalEq(a, x, other, cols, adj.RowVals(u))
			reg := lambda * float64(len(cols))
			for i := 0; i < rank; i++ {
				a.Data[i*rank+i] += reg
			}
			if !lin.CholeskySolve(a, x, x) {
				// Seed semantics: a numerically singular system yields the
				// zero vector (cannot happen while λ·n > 0, but the guard
				// keeps the contract for λ = 0 callers).
				clear(x)
			}
		}
		metrics.AddIDynamic(int64(edges))
		lin.PutScratch(s)
	})
}

// Recommend returns the top-n unrated items for the user, by predicted
// rating (the movie-lens recommender step). Every item row is a candidate;
// a user without a row scores every item 0. Ties break toward the lower
// item id, as in the seed kernel.
func (m *ALSModel) Recommend(user int, rated map[int]bool, n int) []int {
	score := make([]float64, m.Items.Rows)
	if user >= 0 && user < m.Users.Rows {
		for item := range score {
			score[item] = lin.Dot(m.Users.Row(user), m.Items.Row(item))
		}
	}
	var cands []int
	for item := range score {
		if !rated[item] {
			cands = append(cands, item)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return score[cands[i]] > score[cands[j]] })
	return cands[:min(n, len(cands))]
}

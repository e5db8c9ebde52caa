package rdd

import (
	"math"
	"math/rand"
	"sort"

	"renaissance/internal/forkjoin"
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
// flat arrays (lin.CSR) over compacted int32 ids: byUser's row u lists
// (item row, rating) pairs, byItem's row i lists (user row, rating)
// pairs. External ids are compacted in sorted order, so factor-matrix
// row r corresponds to the r-th smallest external id and every
// computation over the graph is deterministic.
type RatingsGraph struct {
	userIDs, itemIDs []int
	userIdx, itemIdx map[int]int32
	byUser, byItem   *lin.CSR
}

// NewRatingsGraph groups the ratings into both CSR orientations. Call it
// once per dataset (benchmark setup), not per training run.
func NewRatingsGraph(ratings []Rating) *RatingsGraph {
	loc := metrics.Acquire()
	// The id compaction and the two CSR builds are the grouping work the
	// seed re-did every iteration; count its allocations where they now
	// happen — once, at setup.
	loc.IncObject()
	loc.AddArray(2 * 3) // two CSRs, three flat arrays each
	g := &RatingsGraph{
		userIdx: make(map[int]int32),
		itemIdx: make(map[int]int32),
	}
	for _, r := range ratings {
		if _, ok := g.userIdx[r.User]; !ok {
			g.userIdx[r.User] = 0
			g.userIDs = append(g.userIDs, r.User)
		}
		if _, ok := g.itemIdx[r.Item]; !ok {
			g.itemIdx[r.Item] = 0
			g.itemIDs = append(g.itemIDs, r.Item)
		}
	}
	sort.Ints(g.userIDs)
	sort.Ints(g.itemIDs)
	for i, id := range g.userIDs {
		g.userIdx[id] = int32(i)
	}
	for i, id := range g.itemIDs {
		g.itemIdx[id] = int32(i)
	}
	uSrc := make([]int32, len(ratings))
	uDst := make([]int32, len(ratings))
	vals := make([]float64, len(ratings))
	for k, r := range ratings {
		uSrc[k] = g.userIdx[r.User]
		uDst[k] = g.itemIdx[r.Item]
		vals[k] = r.Value
	}
	g.byUser = lin.NewCSR(len(g.userIDs), uSrc, uDst, vals)
	// Reuse the buffers transposed for the item side.
	uSrc, uDst = uDst, uSrc
	g.byItem = lin.NewCSR(len(g.itemIDs), uSrc, uDst, vals)
	return g
}

// NumUsers returns the number of distinct users.
func (g *RatingsGraph) NumUsers() int { return len(g.userIDs) }

// NumItems returns the number of distinct items.
func (g *RatingsGraph) NumItems() int { return len(g.itemIDs) }

// NumRatings returns the number of observations.
func (g *RatingsGraph) NumRatings() int { return g.byUser.NumEdges() }

// ALSModel holds the fitted latent factors as dense id-indexed flat
// matrices: row r of Users/Items is the factor vector of the r-th
// smallest external user/item id (the seed stored map[int][]float64 —
// one pointer-chased allocation per id).
type ALSModel struct {
	Users, Items *lin.Mat
	userIdx      map[int]int32
	itemIDs      []int
}

// ALSTrain fits latent factors by alternating least squares with L2
// regularization over a pre-grouped rating graph: holding the item
// factors fixed, every user's factor vector is the solution of a
// rank×rank normal-equation system, solved in parallel across users, and
// vice versa — the als benchmark kernel (Table 1: "data-parallel,
// compute-bound"). Factor rows are initialized in sorted-id
// order from the seeded rng (deterministic; the seed kernel initialized
// in map-iteration order, which was not), and every iteration rewrites
// both factor matrices in place: the per-id normal equations
// (Yᵀ·Y + λ·nᵢ·I)·x = Yᵀ·b are accumulated with lower-triangle rank-1
// updates into pooled scratch and solved by in-place Cholesky — the
// system is SPD by construction since λ·nᵢ > 0. Steady-state iterations
// allocate nothing beyond the executor's fixed fork–join overhead.
func ALSTrain(g *RatingsGraph, rank, iterations int, lambda float64, seed int64) (*ALSModel, error) {
	if g == nil || g.NumRatings() == 0 {
		return nil, ErrEmpty
	}
	rng := rand.New(rand.NewSource(seed))
	metrics.Acquire().AddArray(2) // the two factor matrices
	model := &ALSModel{
		Users:   lin.NewMat(g.NumUsers(), rank),
		Items:   lin.NewMat(g.NumItems(), rank),
		userIdx: g.userIdx,
		itemIDs: g.itemIDs,
	}
	for i := range model.Users.Data {
		model.Users.Data[i] = rng.Float64()
	}
	for i := range model.Items.Data {
		model.Items.Data[i] = rng.Float64()
	}
	for it := 0; it < iterations; it++ {
		solveFactors(g.byUser, model.Users, model.Items, lambda)
		solveFactors(g.byItem, model.Items, model.Users, lambda)
	}
	return model, nil
}

// solveFactors recomputes every row of target from its normal equations,
// holding other fixed: row u gathers its CSR adjacency (counterpart rows
// y and ratings b), accumulates A = Σ y·yᵀ (lower triangle only) and
// x = Σ b·y, adds the λ·n ridge, and Cholesky-solves in place — x
// accumulates directly in target's row, so the only working memory is
// the rank×rank scratch matrix, pooled per executor chunk. Rows are
// independent (target and other are distinct matrices), so the
// parallel-for needs no synchronization beyond the join barrier.
func solveFactors(adj *lin.CSR, target, other *lin.Mat, lambda float64) {
	rank := target.Cols
	forkjoin.For(adj.NumRows(), 0, func(lo, hi int) {
		s := lin.GetScratch()
		loc := metrics.Acquire()
		for u := lo; u < hi; u++ {
			cols, vals := adj.RowCols(u), adj.RowVals(u)
			loc.AddIDynamic(int64(len(cols)))
			a := s.MatN(rank)
			x := target.Row(u)
			clear(x)
			for k, c := range cols {
				y := other.Row(int(c))
				lin.Syr(a, 1, y)
				lin.Axpy(vals[k], y, x)
			}
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
		lin.PutScratch(s)
	})
}

// UserFactor returns the factor row of the external user id.
func (m *ALSModel) UserFactor(user int) ([]float64, bool) {
	r, ok := m.userIdx[user]
	if !ok {
		return nil, false
	}
	return m.Users.Row(int(r)), true
}

// ItemFactor returns the factor row of the external item id.
func (m *ALSModel) ItemFactor(item int) ([]float64, bool) {
	var idx int32 = -1
	// itemIDs is sorted; binary-search the compacted row.
	lo, hi := 0, len(m.itemIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.itemIDs[mid] < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.itemIDs) && m.itemIDs[lo] == item {
		idx = int32(lo)
	}
	if idx < 0 {
		return nil, false
	}
	return m.Items.Row(int(idx)), true
}

// Predict returns the model's rating estimate for (user, item); unknown
// ids predict 0.
func (m *ALSModel) Predict(user, item int) float64 {
	u, okU := m.UserFactor(user)
	v, okI := m.ItemFactor(item)
	if !okU || !okI {
		return 0
	}
	return lin.Dot(u, v)
}

// RMSE computes the root-mean-square error of the model on the ratings.
func (m *ALSModel) RMSE(ratings []Rating) float64 {
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

// Recommend returns the top-n unrated items for the user, by predicted
// rating (the movie-lens recommender step). Ties break toward the lower
// item id, as in the seed kernel.
func (m *ALSModel) Recommend(user int, rated map[int]bool, n int) []int {
	type scored struct {
		item  int
		score float64
	}
	u, okU := m.UserFactor(user)
	var cands []scored
	for r, item := range m.itemIDs {
		if rated[item] {
			continue
		}
		score := 0.0
		if okU {
			score = lin.Dot(u, m.Items.Row(r))
		}
		cands = append(cands, scored{item, score})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].item < cands[j].item
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].item
	}
	return out
}

package rdd

import (
	"sort"

	"renaissance/internal/forkjoin"
	"renaissance/internal/lin"
	"renaissance/internal/metrics"
)

// Graph is a directed graph compacted into a CSR edge array, built once
// at workload setup — the flat-memory substrate of the page-rank kernel
// (Table 1: "data-parallel, atomics"). The seed kernel kept the graph as
// an RDD of pairs and re-derived everything per iteration: a FlatMap
// allocating one contribution pair per edge, a ReduceByKey shuffle, and
// a CollectAsMap rebuilding a hash map of ranks. Here vertex ids are
// compacted in sorted order (ranks live in dense []float64, not
// map[int]float64), the adjacency is stored by destination — row v of
// the CSR lists v's in-neighbours — so every vertex pulls its new rank
// from a sequential scan, and the per-iteration state is three dense
// vectors.
type Graph struct {
	ids      []int    // external id of each vertex, ascending
	in       *lin.CSR // row v: the sources of v's in-edges, in input order
	outDeg   []int32
	dangling []int32 // vertices with no outgoing edge
}

// NewGraph compacts the edge list into in-edge CSR adjacency. Entries keep
// input order (stable counting sort), so rank accumulation is
// deterministic.
func NewGraph(edges []Pair[int, int]) *Graph {
	metrics.IncObject()
	metrics.AddArray(4) // the CSR's flat arrays and the out-degrees
	idx := make(map[int]int32)
	g := &Graph{}
	add := func(v int) {
		if _, ok := idx[v]; !ok {
			idx[v] = 0
			g.ids = append(g.ids, v)
		}
	}
	for _, e := range edges {
		add(e.Key)
		add(e.Value)
	}
	sort.Ints(g.ids)
	for i, id := range g.ids {
		idx[id] = int32(i)
	}
	n := len(g.ids)
	src := make([]int32, len(edges))
	dst := make([]int32, len(edges))
	g.outDeg = make([]int32, n)
	for k, e := range edges {
		src[k] = idx[e.Key]
		dst[k] = idx[e.Value]
		g.outDeg[src[k]]++
	}
	g.in = lin.NewCSR(n, dst, src, nil)
	for v, d := range g.outDeg {
		if d == 0 {
			g.dangling = append(g.dangling, int32(v))
		}
	}
	return g
}

// NumVertices returns the number of distinct vertices.
func (g *Graph) NumVertices() int { return len(g.ids) }

// prParts is the fixed partition count of the PageRank pull phase, the
// engine's defaultPartitions. Each vertex's rank is a sequential sum in
// its own range, so the count decides only the retry granularity, not a
// floating-point result.
const prParts = defaultPartitions

// prState is the per-run PageRank working set — the rank vectors and the
// per-vertex outgoing share — allocated once per PageRank call and reused
// across iterations (the seed allocated one pair per edge plus shuffle
// buckets plus a rank map per iteration).
type prState struct {
	g                 *Graph
	damping           float64
	ranks, out, share []float64
}

func (g *Graph) newPRState(damping float64) *prState {
	n := g.NumVertices()
	metrics.AddArray(3)
	st := &prState{
		g:       g,
		damping: damping,
		ranks:   make([]float64, n),
		out:     make([]float64, n),
		share:   make([]float64, n),
	}
	for i := range st.ranks {
		st.ranks[i] = 1.0
	}
	return st
}

// step advances the ranks by one PageRank iteration:
//
// Share — a parallel-for sets share[u] = rank[u]/outdeg[u], the
// contribution u sends along each of its out-edges. Dangling (sink)
// vertices send nothing along edges; their mass is summed separately and
// redistributed uniformly (standard PageRank), so total rank is conserved
// exactly: the seed simply dropped it, which is why the benchmark's mass
// check needed a 1% tolerance.
//
// Pull — the vertices are split into prParts fixed ranges; each vertex
// sums the shares of its in-neighbours in input edge order and applies
// the damping update. No vertex is written by two ranges, so there are no
// atomics, no per-range accumulators and no merge; and since every rank
// is one sequential sum, results are identical at any GOMAXPROCS.
//
// The pull runs under the recompute budget (forPartsRetry): a range only
// overwrites its own vertices, so a faulted range replays alone, with
// nothing to clear, instead of failing the whole iteration.
func (s *prState) step() {
	g := s.g
	n := g.NumVertices()
	forkjoin.For(n, 0, func(lo, hi int) {
		metrics.AddIDynamic(int64(hi - lo))
		for u := lo; u < hi; u++ {
			if d := g.outDeg[u]; d > 0 {
				s.share[u] = s.ranks[u] / float64(d)
			}
		}
	})
	danglingMass := 0.0
	for _, v := range g.dangling {
		danglingMass += s.ranks[v]
	}
	base := (1 - s.damping) + s.damping*danglingMass/float64(n)
	if err := forPartsRetry(prParts, func(p int) {
		vlo, vhi := p*n/prParts, (p+1)*n/prParts
		edges := 0
		for v := vlo; v < vhi; v++ {
			sum := 0.0
			srcs := g.in.RowCols(v)
			for _, u := range srcs {
				sum += s.share[u]
			}
			s.out[v] = base + s.damping*sum
			edges += len(srcs)
		}
		metrics.AddIDynamic(int64(edges))
	}); err != nil {
		panic(err)
	}
	s.ranks, s.out = s.out, s.ranks
}

// PageRank runs the iterative computation over the pre-built graph and
// returns the rank of every vertex, indexed by compacted vertex: entry i
// is the rank of the i-th smallest external id. Rank mass is conserved
// exactly (dangling mass is redistributed uniformly), so Σ ranks equals
// the vertex count up to floating-point rounding.
func (g *Graph) PageRank(iterations int, damping float64) []float64 {
	if g.NumVertices() == 0 {
		return nil
	}
	st := g.newPRState(damping)
	for it := 0; it < iterations; it++ {
		st.step()
	}
	return st.ranks
}

package rdd

import (
	"fmt"
	"math"

	"renaissance/internal/lin"
	"renaissance/internal/metrics"
)

// Graph is a directed graph in a CSR edge array, built once at workload
// setup — the flat-memory substrate of the page-rank kernel (Table 1:
// "data-parallel, atomics"). The seed kernel kept the graph as an RDD of
// pairs and re-derived everything per iteration: a FlatMap allocating one
// contribution pair per edge, a ReduceByKey shuffle, and a CollectAsMap
// rebuilding a hash map of ranks. Here a vertex id is its row (ranks live
// in dense []float64, not map[int]float64), the adjacency is stored by
// destination — row v of the CSR lists v's in-neighbours — so every
// vertex pulls its new rank from a sequential scan, and the per-iteration
// state is two dense vectors.
type Graph struct {
	in       *lin.CSR // row v: the sources of v's in-edges, in input order
	outDeg   []int32  // one entry a vertex
	dangling []int32  // vertices with no outgoing edge
}

// NewGraph builds the in-edge CSR adjacency of the edge list. Vertex ids
// are rows: the graph has 1 + the largest id vertices, and an id in
// between that no edge names is an isolated sink. An id outside
// [0, math.MaxInt32) panics. Entries keep input order (stable counting
// sort), so rank accumulation is deterministic.
func NewGraph(edges []Pair[int, int]) *Graph {
	metrics.IncObject()
	metrics.AddArray(4) // the CSR's flat arrays and the out-degrees
	src := make([]int32, len(edges))
	dst := make([]int32, len(edges))
	n := 0
	for k, e := range edges {
		src[k], dst[k] = row("vertex", e.Key), row("vertex", e.Value)
		n = max(n, int(src[k])+1, int(dst[k])+1)
	}
	g := &Graph{outDeg: make([]int32, n)}
	for _, s := range src {
		g.outDeg[s]++
	}
	g.in = lin.NewCSR(n, dst, src, nil)
	for v, d := range g.outDeg {
		if d == 0 {
			g.dangling = append(g.dangling, int32(v))
		}
	}
	return g
}

// row returns an id as a CSR row, panicking with the id if no int32 row
// count can hold it.
func row(kind string, id int) int32 {
	if id < 0 || id >= math.MaxInt32 {
		panic(fmt.Sprintf("rdd: %s id %d outside [0, %d)", kind, id, math.MaxInt32))
	}
	return int32(id)
}

// NumVertices returns 1 + the largest vertex id.
func (g *Graph) NumVertices() int { return len(g.outDeg) }

// prState is the per-run PageRank working set, two dense vectors
// allocated once per PageRank call and swapped every step. cur holds
// each vertex's share: rank/outdeg for a vertex with out-edges, the rank
// itself for a sink. No in-edge reads a sink's entry, and the dangling
// mass is summed from those entries, so the shares are all a step reads.
type prState struct {
	g         *Graph
	damping   float64
	cur, next []float64
}

func (g *Graph) newPRState(damping float64) *prState {
	n := g.NumVertices()
	metrics.AddArray(2)
	st := &prState{
		g:       g,
		damping: damping,
		cur:     make([]float64, n),
		next:    make([]float64, n),
	}
	for v, d := range g.outDeg {
		st.cur[v] = 1.0
		if d > 0 {
			st.cur[v] = 1.0 / float64(d)
		}
	}
	return st
}

// step advances the shares by one PageRank iteration, one parallel-for
// over the vertices: each vertex sums the shares of its in-neighbours in
// input edge order, applies the damping update to get its rank r, and
// stores r/outdeg, the contribution it sends along each of its out-edges
// next step; a sink, and every vertex on the last step, stores r itself.
// Dangling (sink) vertices send nothing along edges; their mass is summed
// before the pass and redistributed uniformly (standard PageRank), so
// total rank is conserved exactly.
//
// A share is the same rank/outdeg division the textbook formulation
// makes on every out-edge, taken once, so the ranks match it bit for bit;
// every rank is one sequential sum, so the chunking changes no bit at any
// GOMAXPROCS. No vertex is written by two
// chunks, so there are no atomics and no merge.
//
// The pass runs under the recompute budget (forRetry): a chunk reads only
// cur and overwrites only its own entries of next, so a faulted chunk
// replays alone. A chunk that spends the budget fails the step with its
// *forkjoin.TaskError.
func (s *prState) step(last bool) error {
	g := s.g
	n := g.NumVertices()
	danglingMass := 0.0
	for _, v := range g.dangling {
		danglingMass += s.cur[v]
	}
	base := (1 - s.damping) + s.damping*danglingMass/float64(n)
	if err := forRetry(n, 0, func(lo, hi int) {
		edges := 0
		for v := lo; v < hi; v++ {
			sum := 0.0
			srcs := g.in.RowCols(v)
			for _, u := range srcs {
				sum += s.cur[u]
			}
			r := base + s.damping*sum
			if d := g.outDeg[v]; d > 0 && !last {
				r /= float64(d)
			}
			s.next[v] = r
			edges += len(srcs)
		}
		metrics.AddIDynamic(int64(hi - lo + edges))
	}); err != nil {
		return err
	}
	s.cur, s.next = s.next, s.cur
	return nil
}

// PageRank runs the iterative computation over the pre-built graph and
// returns the rank of every vertex, indexed by vertex id. Rank mass is
// conserved exactly (dangling mass is redistributed uniformly), so Σ ranks
// equals the vertex count up to floating-point rounding. A failed step ends the
// run with its error and no ranks.
func (g *Graph) PageRank(iterations int, damping float64) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	if iterations <= 0 {
		metrics.AddArray(1)
		ranks := make([]float64, n)
		for i := range ranks {
			ranks[i] = 1.0
		}
		return ranks, nil
	}
	st := g.newPRState(damping)
	for it := 0; it < iterations; it++ {
		if err := st.step(it == iterations-1); err != nil {
			return nil, err
		}
	}
	return st.cur, nil
}

package rdd

import (
	"math/rand"
	"runtime"
	"testing"
)

// Steady-state allocation guards for the hot ML iterations. The flat
// kernels' working set (factor matrices, rank vectors, scratch) is
// allocated once per training run and pooled, so a steady-state
// iteration's only allocations are the fixed fork–join overhead of its
// parallel-for calls (the parJob, its barrier channel, helper tasks and
// the body closures). The bound below leaves headroom for executors with more
// workers while still catching any per-row or per-edge allocation
// sneaking back in (the seed kernels allocated per rating map entry and
// per edge contribution pair — thousands per iteration at these sizes).
const mlIterAllocBound = 48

// TestALSIterationAllocs pins the allocations of one full alternating
// iteration (both solveFactors passes) over a pre-built graph.
func TestALSIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(17))
	g := NewRatingsGraph(syntheticRatings(rng, 60, 40, 4))
	model, err := ALSTrain(g, 4, 1, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		solveFactors(g.byUser, model.Users, model.Items, 0.01)
		solveFactors(g.byItem, model.Items, model.Users, 0.01)
	})
	if allocs > mlIterAllocBound {
		t.Fatalf("ALS iteration allocated %.1f objects, want <= %d", allocs, mlIterAllocBound)
	}
}

// TestPageRankIterationAllocs pins the allocations of one rank
// propagation step over a pre-built CSR graph and reused prState.
func TestPageRankIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st := NewGraph(webEdges(rand.New(rand.NewSource(19)), 600)).newPRState(0.85)
	if err := st.step(); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { st.step() })
	if allocs > mlIterAllocBound {
		t.Fatalf("PageRank step allocated %.1f objects, want <= %d", allocs, mlIterAllocBound)
	}
}

// webEdges is the page-rank workload's graph shape: every vertex links to
// its successor plus three preferential links toward low-numbered hubs.
func webEdges(rng *rand.Rand, n int) []Pair[int, int] {
	edges := make([]Pair[int, int], 0, 4*n)
	for v := 0; v < n; v++ {
		edges = append(edges, KV(v, (v+1)%n))
		for k := 0; k < 3; k++ {
			edges = append(edges, KV(v, rng.Intn(v/4+1)))
		}
	}
	return edges
}

// TestPageRankAllocsIndependentOfVertices: a PageRank run allocates its
// three rank vectors and the fixed fork–join overhead of its passes,
// whatever the graph size (the scatter kernel's result was a map with one
// entry per vertex).
func TestPageRankAllocsIndependentOfVertices(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small := NewGraph(webEdges(rand.New(rand.NewSource(3)), 1000))
	large := NewGraph(webEdges(rand.New(rand.NewSource(3)), 16000))
	a := testing.AllocsPerRun(5, func() { small.PageRank(3, 0.85) })
	b := testing.AllocsPerRun(5, func() { large.PageRank(3, 0.85) })
	if a != b {
		t.Fatalf("PageRank allocated %.0f objects at 1k vertices, %.0f at 16k", a, b)
	}
}

// TestTrainingAllocsIndependentOfRows: the kernels read the flat training
// set in place, so a call's allocations — per-chunk tables, the model,
// the fork–join overhead of its passes — do not grow with the row count;
// nor do Accuracy's, which scores the set in place.
func TestTrainingAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type sets struct {
		points *Points
		counts *Counts
	}
	small := sets{
		pointsOf(syntheticLabeled(rand.New(rand.NewSource(7)), 1<<10, 6)),
		countsOf(syntheticCounts(rand.New(rand.NewSource(7)), 1<<10, 6)),
	}
	large := sets{
		pointsOf(syntheticLabeled(rand.New(rand.NewSource(7)), 1<<14, 6)),
		countsOf(syntheticCounts(rand.New(rand.NewSource(7)), 1<<14, 6)),
	}
	for _, k := range []struct {
		name string
		run  func(sets)
	}{
		{"LogisticRegression", func(s sets) { LogisticRegression(s.points, 3, 0.5) }},
		{"NaiveBayes", func(s sets) { NaiveBayes(s.counts, 2) }},
		{"ChiSquare", func(s sets) { ChiSquare(s.counts, 2, 4) }},
		{"Accuracy", func(s sets) {
			Accuracy(s.counts.Labels, func(i int) int { return int(s.counts.Row(i)[0]) / 4 })
		}},
	} {
		a := testing.AllocsPerRun(5, func() { k.run(small) })
		b := testing.AllocsPerRun(5, func() { k.run(large) })
		if a != b {
			t.Errorf("%s allocated %.0f objects at 1k rows, %.0f at 16k", k.name, a, b)
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f, after a warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func treeNodes(n *TreeNode) int {
	if n.IsLeaf() {
		return 1
	}
	return 1 + treeNodes(n.Left) + treeNodes(n.Right)
}

// TestDecisionTreeAllocBytes: beyond the per-node work (the node, its
// class counts, split results and parallel-for), a fit allocates the
// index array and the spill buffer, 4 bytes a point each. Splits
// partition the index in place.
func TestDecisionTreeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, perNode = 1 << 14, 1024
	pts := pointsOf(syntheticLabeled(rand.New(rand.NewSource(13)), n, 6))
	tree, err := DecisionTree(pts, 2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := treeNodes(tree)
	got := allocBytesPerRun(5, func() { DecisionTree(pts, 2, 6, 4) })
	if limit := uint64(8*n + perNode*nodes); got > limit {
		t.Fatalf("DecisionTree allocated %d B over %d points and %d nodes, want <= %d", got, n, nodes, limit)
	}
}

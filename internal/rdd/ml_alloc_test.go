package rdd

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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
	if err := st.step(false); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { st.step(false) })
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
// two share vectors and the fixed fork–join overhead of its passes,
// whatever the graph size (the scatter kernel's result was a map with one
// entry per vertex).
func TestPageRankAllocsIndependentOfVertices(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small := NewGraph(webEdges(rand.New(rand.NewSource(3)), 1000))
	large := NewGraph(webEdges(rand.New(rand.NewSource(3)), 16000))
	// A collection in between empties the pools the passes draw from, and
	// when one falls depends on the heap the earlier tests left.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := testing.AllocsPerRun(5, func() { small.PageRank(3, 0.85) })
	b := testing.AllocsPerRun(5, func() { large.PageRank(3, 0.85) })
	if a != b {
		t.Fatalf("PageRank allocated %.0f objects at 1k vertices, %.0f at 16k", a, b)
	}
}

// TestPageRankBytesGate: a PageRank run allocates two vectors of one
// float64 a vertex — the shares it reads and the ones it writes, the
// latter returned as the ranks — and the fork–join overhead of its one
// pass a step, nothing else that grows with the graph.
func TestPageRankBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := NewGraph(webEdges(rand.New(rand.NewSource(3)), 16000))
	// A vector this large is allocated in whole 8 KiB pages.
	vector := uint64(8*g.NumVertices()+8191) &^ 8191
	got := allocBytesPerRun(5, func() { g.PageRank(10, 0.85) })
	t.Logf("PageRank(10, 0.85) over %d vertices: %d B", g.NumVertices(), got)
	if limit := 2*vector + 4096; got > limit {
		t.Errorf("PageRank(10, 0.85) over %d vertices allocated %d B, want <= %d (2 vectors of %d B + 4 KiB)",
			g.NumVertices(), got, limit, vector)
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
// children's class counts and feature bounds, and its parallel-for), a
// fit allocates the index array and the spill buffer, 4 bytes a point
// each, and the per-chunk histogram tables once. Splits partition the
// index in place.
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

// TestTrainingSetBytesGate: a label is one byte. NewCounts(n, d) and
// NewPoints(n, d) allocate the features, n bytes of labels and their
// headers, nothing more per point.
func TestTrainingSetBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, d, headers = 1 << 16, 4, 256
	var counts *Counts
	var points *Points
	if got := allocBytesPerRun(5, func() { counts = NewCounts(n, d) }); got > n*d+n+headers {
		t.Errorf("NewCounts(%d, %d): %d bytes, want <= %d features + %d labels + %d", n, d, got, n*d, n, headers)
	}
	if got := allocBytesPerRun(5, func() { points = NewPoints(n, d) }); got > 8*n*d+n+headers {
		t.Errorf("NewPoints(%d, %d): %d bytes, want <= %d features + %d labels + %d", n, d, got, 8*n*d, n, headers)
	}
	if len(counts.Labels) != n || len(points.Labels) != n {
		t.Errorf("label arrays hold %d and %d labels, want %d", len(counts.Labels), len(points.Labels), n)
	}
}

// TestGraphBytesGate: a Graph retains its in-edge CSR, the out-degrees
// and the dangling list, and nothing else per vertex. The edge ends as
// int32 rows are NewGraph's scratch.
func TestGraphBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	edges := webEdges(rand.New(rand.NewSource(5)), 1<<15)
	edges = append(edges, KV(1<<15, 1<<15+1)) // two more vertices, one dangling
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := NewGraph(edges)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Each array rounded up to whole 8 KiB pages, plus the headers.
	arrays := int64(4 * (cap(g.in.RowPtr) + cap(g.in.Col) + cap(g.outDeg) + cap(g.dangling)))
	if limit := arrays + 4*8192 + 512; retained > limit {
		t.Errorf("NewGraph over %d vertices retains %d bytes, want <= %d (CSR, out-degrees, dangling list)",
			g.NumVertices(), retained, limit)
	}
	if g.NumVertices() != 1<<15+2 || len(g.dangling) != 1 {
		t.Errorf("graph has %d vertices and %d dangling, want %d and 1", g.NumVertices(), len(g.dangling), 1<<15+2)
	}
	runtime.KeepAlive(edges)
}

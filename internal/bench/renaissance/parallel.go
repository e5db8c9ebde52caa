package renaissance

import (
	"fmt"
	"math"
	"sort"

	"renaissance/internal/core"
	"renaissance/internal/forkjoin"
	"renaissance/internal/futures"
)

func init() {
	register("fj-kmeans",
		"K-means clustering on the fork-join pool.",
		[]string{"task-parallel", "concurrent data structures"}, newFJKMeans)
	register("future-genetic",
		"Genetic function optimization with futures.",
		[]string{"task-parallel", "contention"}, newFutureGenetic)
}

// --- fj-kmeans ---

type fjKMeansWorkload struct {
	points    [][2]float64
	k         int
	rounds    int
	centroids [][2]float64
}

func newFJKMeans(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("fj-kmeans")
	n := cfg.Scale(6000)
	const k = 5
	w := &fjKMeansWorkload{k: k, rounds: 8}
	// Points clustered around k well-separated centers.
	for i := 0; i < n; i++ {
		c := i % k
		cx, cy := float64(c*10), float64((c%2)*10)
		w.points = append(w.points, [2]float64{
			cx + rng.NormFloat64(), cy + rng.NormFloat64(),
		})
	}
	return w, nil
}

type kmAccum struct {
	sums   [][2]float64
	counts []int
}

func (w *fjKMeansWorkload) RunIteration() error {
	// Points are generated round-robin by cluster, so the first k points
	// belong to k distinct clusters — a deterministic, well-spread
	// initialization.
	centroids := make([][2]float64, w.k)
	copy(centroids, w.points[:w.k])

	for round := 0; round < w.rounds; round++ {
		// Assignment + partial sums via recursive fork-join over the
		// point range.
		var assign func(lo, hi int) forkjoin.Fn
		assign = func(lo, hi int) forkjoin.Fn {
			return func(worker *forkjoin.Worker) any {
				if hi-lo <= 512 {
					acc := kmAccum{sums: make([][2]float64, w.k), counts: make([]int, w.k)}
					for _, p := range w.points[lo:hi] {
						best, bestD := 0, math.Inf(1)
						for c, ct := range centroids {
							dx, dy := p[0]-ct[0], p[1]-ct[1]
							if d := dx*dx + dy*dy; d < bestD {
								best, bestD = c, d
							}
						}
						acc.sums[best][0] += p[0]
						acc.sums[best][1] += p[1]
						acc.counts[best]++
					}
					return acc
				}
				mid := (lo + hi) / 2
				left := worker.Fork(assign(lo, mid))
				right := assign(mid, hi)(worker).(kmAccum)
				leftAcc := worker.Join(left).(kmAccum)
				for c := 0; c < w.k; c++ {
					right.sums[c][0] += leftAcc.sums[c][0]
					right.sums[c][1] += leftAcc.sums[c][1]
					right.counts[c] += leftAcc.counts[c]
				}
				return right
			}
		}
		acc := forkjoin.Shared().Invoke(assign(0, len(w.points))).(kmAccum)
		for c := 0; c < w.k; c++ {
			if acc.counts[c] > 0 {
				centroids[c][0] = acc.sums[c][0] / float64(acc.counts[c])
				centroids[c][1] = acc.sums[c][1] / float64(acc.counts[c])
			}
		}
	}
	w.centroids = centroids
	return nil
}

func (w *fjKMeansWorkload) Validate() error {
	if len(w.centroids) != w.k {
		return fmt.Errorf("fj-kmeans: %d centroids", len(w.centroids))
	}
	// Centroids must be distinct and near the generating centers.
	var xs []float64
	for _, c := range w.centroids {
		xs = append(xs, c[0])
	}
	sort.Float64s(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i]-xs[i-1] < 2 {
			return fmt.Errorf("fj-kmeans: centroids collapsed: %v", xs)
		}
	}
	return nil
}

// --- future-genetic ---

type futureGeneticWorkload struct {
	population int
	gens       int
	dim        int
	firstBest  float64
	best       float64
}

func newFutureGenetic(cfg core.Config) (core.Workload, error) {
	return &futureGeneticWorkload{
		population: cfg.Scale(64),
		gens:       cfg.Scale(30),
		dim:        8,
	}, nil
}

// fitness is the (negated) sphere function: maximal at the origin.
func fitness(genome []float64) float64 {
	s := 0.0
	for _, g := range genome {
		s += g * g
	}
	return -s
}

func (w *futureGeneticWorkload) RunIteration() error {
	// Deterministic xorshift so evolution reproduces across runs.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%2048)/1024 - 1
	}

	pop := make([][]float64, w.population)
	for i := range pop {
		g := make([]float64, w.dim)
		for j := range g {
			g[j] = next() * 10
		}
		pop[i] = g
	}

	type scored struct {
		genome []float64
		fit    float64
	}
	for gen := 0; gen < w.gens; gen++ {
		// Evaluate the population concurrently with futures (the Jenetics
		// executor shape).
		futs := make([]*futures.Future[scored], len(pop))
		for i, g := range pop {
			g := g
			futs[i] = futures.Async(func() (scored, error) {
				return scored{g, fitness(g)}, nil
			})
		}
		all, err := futures.Sequence(futs).Await()
		if err != nil {
			return err
		}
		sort.Slice(all, func(i, j int) bool { return all[i].fit > all[j].fit })
		w.best = all[0].fit
		if gen == 0 {
			w.firstBest = w.best
		}

		// Elitism + mutation: the top half breeds the next generation.
		for i := w.population / 2; i < w.population; i++ {
			parent := all[i-w.population/2].genome
			child := make([]float64, w.dim)
			for j := range child {
				child[j] = parent[j] * 0.7
				if int(state)%5 == 0 {
					child[j] += next()
				}
			}
			pop[i] = child
		}
		for i := 0; i < w.population/2; i++ {
			pop[i] = all[i].genome
		}
	}
	return nil
}

func (w *futureGeneticWorkload) Validate() error {
	// Elitism makes the best fitness non-decreasing, and the 0.7-shrink
	// breeding improves it strictly on the sphere function.
	if w.best < w.firstBest {
		return fmt.Errorf("future-genetic: best fitness regressed %.3f -> %.3f", w.firstBest, w.best)
	}
	if w.gens >= 3 && w.best <= w.firstBest {
		return fmt.Errorf("future-genetic: no improvement from %.3f over %d generations", w.firstBest, w.gens)
	}
	return nil
}

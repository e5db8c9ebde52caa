// Wordcount: the data-parallel substrate on the canonical word-count and
// page-rank computations — the shapes the paper's Spark-based benchmarks
// (als, page-rank, ...) are built from. The count is a parallel-for on the
// shared fork–join pool with one private table per partition, merged
// after the join; the ranks come from the CSR graph the page-rank
// workload trains on.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"renaissance/internal/forkjoin"
	"renaissance/internal/rdd"
)

func main() {
	text := strings.Repeat(
		"the renaissance suite measures parallel applications "+
			"the suite measures concurrency the applications use ", 2000)

	// Word count: each of 8 partitions counts its own range of words into
	// a private table, so no table is shared while the pool runs.
	words := strings.Split(text, " ")
	const parts = 8
	partial := make([]map[string]int, parts)
	forkjoin.For(parts, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			counts := map[string]int{}
			for _, w := range words[p*len(words)/parts : (p+1)*len(words)/parts] {
				if w != "" {
					counts[w]++
				}
			}
			partial[p] = counts
		}
	})
	counts := map[string]int{}
	for _, part := range partial {
		for w, n := range part {
			counts[w] += n
		}
	}

	type wc struct {
		word string
		n    int
	}
	var tops []wc
	for w, n := range counts {
		tops = append(tops, wc{w, n})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].n != tops[j].n {
			return tops[i].n > tops[j].n
		}
		return tops[i].word < tops[j].word
	})
	fmt.Println("top words:")
	for i, t := range tops {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-12s %d\n", t.word, t.n)
	}

	// PageRank over a small link graph. Graph.PageRank's ranks are indexed
	// by vertex id in ascending order.
	edges := []rdd.Pair[int, int]{
		rdd.KV(1, 2), rdd.KV(1, 3), rdd.KV(2, 3), rdd.KV(3, 1),
		rdd.KV(4, 3), rdd.KV(4, 1), rdd.KV(5, 3),
	}
	ranks, err := rdd.NewGraph(edges).PageRank(20, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	seen := map[int]bool{}
	var vs []int
	for _, e := range edges {
		for _, v := range []int{e.Key, e.Value} {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
	}
	sort.Ints(vs)
	fmt.Println("\npage ranks (vertex 3 should dominate):")
	for i, v := range vs {
		fmt.Printf("  vertex %d: %.3f\n", v, ranks[i])
	}
}

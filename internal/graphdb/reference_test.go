package graphdb

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refGraph is the differential oracle: the store as it was before the node
// table became ID-indexed — a map of nodes walked in random order, a global
// sort in Match, a visited map and a fresh frontier per level in
// ShortestPath. It is fed the operations the real graph committed, with the
// IDs the real graph handed out.
type refGraph struct {
	nodes   map[NodeID]*refNode
	byLabel map[string][]NodeID // commit order, not sorted
}

type refNode struct {
	id      NodeID
	label   string
	props   map[string]any
	out, in []MatchRow
}

func newRef() *refGraph {
	return &refGraph{nodes: map[NodeID]*refNode{}, byLabel: map[string][]NodeID{}}
}

func (r *refGraph) create(id NodeID, label string, props map[string]any) {
	r.nodes[id] = &refNode{id: id, label: label, props: props}
	r.byLabel[label] = append(r.byLabel[label], id)
}

func (r *refGraph) relate(from, to NodeID, relType string) {
	row := MatchRow{From: from, To: to, RelType: relType}
	r.nodes[from].out = append(r.nodes[from].out, row)
	r.nodes[to].in = append(r.nodes[to].in, row)
}

// match is the old Match: map walk, append from nil, global sort. The old
// code used sort.Slice, which left the order of rows with equal (From, To)
// unspecified; the stable sort pins it to insertion order, which is what
// Match now documents.
func (r *refGraph) match(fromLabel, relType, toLabel string) []MatchRow {
	var out []MatchRow
	for _, n := range r.nodes {
		if fromLabel != "" && n.label != fromLabel {
			continue
		}
		for _, row := range n.out {
			if relType != "" && row.RelType != relType {
				continue
			}
			if toLabel != "" && r.nodes[row.To].label != toLabel {
				continue
			}
			out = append(out, row)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (r *refGraph) shortestPath(src, dst NodeID, relType string) int {
	if src == dst {
		return 0
	}
	visited := map[NodeID]bool{src: true}
	frontier := []NodeID{src}
	depth := 0
	for len(frontier) > 0 {
		depth++
		var next []NodeID
		for _, id := range frontier {
			n, ok := r.nodes[id]
			if !ok {
				continue
			}
			for _, row := range n.out {
				if relType != "" && row.RelType != relType {
					continue
				}
				if row.To == dst {
					return depth
				}
				if !visited[row.To] {
					visited[row.To] = true
					next = append(next, row.To)
				}
			}
		}
		frontier = next
	}
	return -1
}

func (r *refGraph) neighbors(id NodeID, relType string, dir Direction) []NodeID {
	n, ok := r.nodes[id]
	if !ok {
		return nil
	}
	var out []NodeID
	if dir == Outgoing || dir == Both {
		for _, row := range n.out {
			if relType == "" || row.RelType == relType {
				out = append(out, row.To)
			}
		}
	}
	if dir == Incoming || dir == Both {
		for _, row := range n.in {
			if relType == "" || row.RelType == relType {
				out = append(out, row.From)
			}
		}
	}
	return out
}

func (r *refGraph) aggregate(label, prop string) map[any]int {
	out := map[any]int{}
	for _, id := range r.byLabel[label] {
		if v, ok := r.nodes[id].props[prop]; ok {
			out[v]++
		}
	}
	return out
}

func (r *refGraph) topDegree(label string, k int) []NodeID {
	ids := slices.Clone(r.byLabel[label])
	deg := func(id NodeID) int { return len(r.nodes[id].out) + len(r.nodes[id].in) }
	sort.Slice(ids, func(i, j int) bool {
		if deg(ids[i]) != deg(ids[j]) {
			return deg(ids[i]) > deg(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids[:min(k, len(ids))]
}

// stagedTx is one random transaction held open by the script: the handle on
// the real graph and the same operations recorded for the oracle.
type stagedTx struct {
	tx      *Tx
	creates []txOp
	relates []txOp
}

var (
	refLabels = []string{"A", "B", "C"}
	refTypes  = []string{"R", "S"}
)

// stage opens a transaction with a few random creates and relates. Relates
// pick their ends among the live nodes and the ones this transaction
// staged, so self-loops and parallel edges come up; a doomed transaction
// gets one relate to a node that does not exist.
func stage(rng *rand.Rand, g *Graph, liveIDs []NodeID, doomed bool) *stagedTx {
	s := &stagedTx{tx: g.WriteTx()}
	pool := slices.Clone(liveIDs)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		label := refLabels[rng.Intn(len(refLabels))]
		props := map[string]any{"region": rng.Intn(3)}
		id, _ := s.tx.CreateNode(label, props)
		s.creates = append(s.creates, txOp{id: id, name: label, props: props})
		pool = append(pool, id)
	}
	if len(pool) > 0 {
		for i, n := 0, rng.Intn(8); i < n; i++ {
			from, to := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			relType := refTypes[rng.Intn(len(refTypes))]
			_ = s.tx.Relate(from, to, relType, nil)
			s.relates = append(s.relates, txOp{id: from, to: to, name: relType})
		}
	}
	if doomed {
		_ = s.tx.Relate(1<<40, 1<<40, "R", nil)
	}
	return s
}

// buildRandom drives the real graph and the oracle through one random
// script of committed, rolled-back and validation-failed transactions, some
// of them committing in the reverse of the order they took their IDs in.
func buildRandom(t *testing.T, rng *rand.Rand) (*Graph, *refGraph, []NodeID) {
	g, ref := New(), newRef()
	var liveIDs []NodeID
	commit := func(s *stagedTx) {
		if err := s.tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		for _, op := range s.creates {
			ref.create(op.id, op.name, op.props)
			liveIDs = append(liveIDs, op.id)
		}
		for _, op := range s.relates {
			ref.relate(op.id, op.to, op.name)
		}
	}
	for i, n := 0, 4+rng.Intn(12); i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			if err := stage(rng, g, liveIDs, false).tx.Rollback(); err != nil {
				t.Fatalf("rollback: %v", err)
			}
		case 1:
			if err := stage(rng, g, liveIDs, true).tx.Commit(); err == nil {
				t.Fatal("doomed transaction committed")
			}
		case 2:
			first, second := stage(rng, g, liveIDs, false), stage(rng, g, liveIDs, false)
			commit(second)
			commit(first)
		default:
			commit(stage(rng, g, liveIDs, false))
		}
	}
	return g, ref, liveIDs
}

func sameRows[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

func TestDifferentialAgainstReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ref, ids := buildRandom(t, rng)
		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			ok = false
		}

		if got := g.NodeCount(); got != len(ref.nodes) {
			fail("NodeCount = %d, want %d", got, len(ref.nodes))
		}
		labels, types := append([]string{"", "Z"}, refLabels...), append([]string{"", "Z"}, refTypes...)
		for _, label := range labels {
			if !slices.IsSorted(g.byLabel[label]) {
				fail("byLabel[%q] = %v, not ascending", label, g.byLabel[label])
			}
			if got, want := g.AggregateByProp(label, "region"), ref.aggregate(label, "region"); !reflect.DeepEqual(got, want) {
				fail("AggregateByProp(%q) = %v, want %v", label, got, want)
			}
			for _, k := range []int{0, 2, 1000} {
				if got, want := g.TopDegree(label, k), ref.topDegree(label, k); !slices.Equal(got, want) {
					fail("TopDegree(%q, %d) = %v, want %v", label, k, got, want)
				}
			}
			for _, relType := range types {
				for _, toLabel := range labels {
					if got, want := g.Match(label, relType, toLabel), ref.match(label, relType, toLabel); !sameRows(got, want) {
						fail("Match(%q, %q, %q) = %v, want %v", label, relType, toLabel, got, want)
					}
				}
			}
		}
		// One ID past the table and one in a gap ride along with the live ones.
		probe := append([]NodeID{0, NodeID(g.nextID.Load()) + 1}, ids...)
		for id := NodeID(1); id <= NodeID(g.nextID.Load()); id++ {
			if _, live := ref.nodes[id]; !live {
				probe = append(probe, id)
				break
			}
		}
		for _, id := range probe {
			for _, relType := range types {
				for _, dir := range []Direction{Outgoing, Incoming, Both} {
					if got, want := g.Neighbors(id, relType, dir), ref.neighbors(id, relType, dir); !sameRows(got, want) {
						fail("Neighbors(%d, %q, %d) = %v, want %v", id, relType, dir, got, want)
					}
				}
				dst := probe[rng.Intn(len(probe))]
				if got, want := g.ShortestPath(id, dst, relType), ref.shortestPath(id, dst, relType); got != want {
					fail("ShortestPath(%d, %d, %q) = %d, want %d", id, dst, relType, got, want)
				}
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Package graphdb implements a small in-memory property-graph database
// with transactions and a traversal/query layer, in the style of an
// embedded Neo4J — the substrate of the neo4j-analytics benchmark
// (Table 1: "query processing, transactions"). Nodes carry labels and
// properties; relationships are typed and directed. Write transactions
// buffer their mutations and apply them atomically at commit under the
// store lock; read transactions see a consistent snapshot for their whole
// duration.
package graphdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"renaissance/internal/metrics"
)

// Errors returned by transaction operations.
var (
	ErrTxDone      = errors.New("graphdb: transaction already finished")
	ErrNodeMissing = errors.New("graphdb: node does not exist")
)

// NodeID identifies a node.
type NodeID int64

// Node is a labelled property vertex; mutate through a transaction.
type Node struct {
	ID     NodeID
	Label  string
	Props  map[string]any
	outRel []*rel
	inRel  []*rel
}

type rel struct {
	Type     string
	From, To NodeID
	Props    map[string]any
}

// Graph is the store.
type Graph struct {
	mu      sync.RWMutex
	nodes   map[NodeID]*Node
	byLabel map[string][]NodeID
	nextID  NodeID
	// Commits counts committed write transactions.
	Commits int64
}

// New creates an empty graph.
func New() *Graph {
	metrics.IncObject()
	return &Graph{
		nodes:   make(map[NodeID]*Node),
		byLabel: make(map[string][]NodeID),
	}
}

// WriteTx starts a write transaction. Mutations are buffered and applied
// atomically on Commit; Rollback discards them.
func (g *Graph) WriteTx() *Tx {
	metrics.IncObject()
	return &Tx{g: g, write: true}
}

// Tx is a transaction handle. Operations are validated and applied
// together at Commit under the store lock, so a transaction either takes
// full effect or none.
type Tx struct {
	g      *Graph
	write  bool
	done   bool
	ops    []txOp
	staged map[NodeID]bool // nodes this tx will create
}

type txOp struct {
	validate func(*Graph) error
	apply    func(*Graph)
}

// exists reports whether the node is live in the graph or staged by this
// transaction (valid to reference from later operations in the same tx).
func (t *Tx) exists(g *Graph, id NodeID) bool {
	if t.staged[id] {
		return true
	}
	_, ok := g.nodes[id]
	return ok
}

// CreateNode stages a node creation and returns its future ID.
//
// IDs are assigned eagerly from the graph's counter so that staged
// relationships can reference staged nodes.
func (t *Tx) CreateNode(label string, props map[string]any) (NodeID, error) {
	if t.done {
		return 0, ErrTxDone
	}
	metrics.IncSynch()
	t.g.mu.Lock()
	t.g.nextID++
	id := t.g.nextID
	t.g.mu.Unlock()
	if t.staged == nil {
		t.staged = make(map[NodeID]bool)
	}
	t.staged[id] = true
	t.ops = append(t.ops, txOp{apply: func(g *Graph) {
		metrics.IncObject()
		g.nodes[id] = &Node{ID: id, Label: label, Props: cloneProps(props)}
		g.byLabel[label] = append(g.byLabel[label], id)
	}})
	return id, nil
}

// Relate stages a directed relationship from -> to of the given type.
func (t *Tx) Relate(from, to NodeID, relType string, props map[string]any) error {
	if t.done {
		return ErrTxDone
	}
	t.ops = append(t.ops, txOp{
		validate: func(g *Graph) error {
			if !t.exists(g, from) {
				return fmt.Errorf("%w: %d", ErrNodeMissing, from)
			}
			if !t.exists(g, to) {
				return fmt.Errorf("%w: %d", ErrNodeMissing, to)
			}
			return nil
		},
		apply: func(g *Graph) {
			fn, tn := g.nodes[from], g.nodes[to]
			metrics.IncObject()
			r := &rel{Type: relType, From: from, To: to, Props: cloneProps(props)}
			fn.outRel = append(fn.outRel, r)
			tn.inRel = append(tn.inRel, r)
		},
	})
	return nil
}

// Commit applies the buffered operations atomically. If any operation
// fails, the whole transaction is rolled back and the error returned.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	g := t.g
	metrics.IncSynch()
	g.mu.Lock()
	defer g.mu.Unlock()

	// Validate every operation before applying any, so a failing
	// transaction leaves the graph untouched.
	for _, op := range t.ops {
		if op.validate == nil {
			continue
		}
		if err := op.validate(g); err != nil {
			return err
		}
	}
	for _, op := range t.ops {
		op.apply(g)
	}
	g.Commits++
	return nil
}

// Rollback discards the staged operations.
func (t *Tx) Rollback() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.ops = nil
	return nil
}

func cloneProps(props map[string]any) map[string]any {
	if props == nil {
		return nil
	}
	metrics.IncObject()
	out := make(map[string]any, len(props))
	for k, v := range props {
		out[k] = v
	}
	return out
}

// --- Read API (consistent under the store's read lock) ---

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Direction selects traversal orientation.
type Direction int

// Traversal directions.
const (
	Outgoing Direction = iota
	Incoming
	Both
)

// Neighbors returns the IDs reachable over one relationship of the given
// type (empty type matches all) in the given direction.
func (g *Graph) Neighbors(id NodeID, relType string, dir Direction) []NodeID {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	metrics.IncArray()
	var out []NodeID
	if dir == Outgoing || dir == Both {
		for _, r := range n.outRel {
			if relType == "" || r.Type == relType {
				out = append(out, r.To)
			}
		}
	}
	if dir == Incoming || dir == Both {
		for _, r := range n.inRel {
			if relType == "" || r.Type == relType {
				out = append(out, r.From)
			}
		}
	}
	return out
}

// MatchRow is one result of a pattern match (a)-[r]->(b).
type MatchRow struct {
	From, To NodeID
	RelType  string
}

// Match returns every (from:fromLabel)-[:relType]->(to:toLabel) triple;
// empty strings are wildcards.
func (g *Graph) Match(fromLabel, relType, toLabel string) []MatchRow {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncArray()
	var out []MatchRow
	for _, n := range g.nodes {
		if fromLabel != "" && n.Label != fromLabel {
			continue
		}
		for _, r := range n.outRel {
			if relType != "" && r.Type != relType {
				continue
			}
			if toLabel != "" {
				if tn, ok := g.nodes[r.To]; !ok || tn.Label != toLabel {
					continue
				}
			}
			out = append(out, MatchRow{From: r.From, To: r.To, RelType: r.Type})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// ShortestPath returns the hop count of the shortest directed path from
// src to dst following relType edges (empty = any), or -1 if unreachable.
func (g *Graph) ShortestPath(src, dst NodeID, relType string) int {
	if src == dst {
		return 0
	}
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncObject()
	visited := map[NodeID]bool{src: true}
	frontier := []NodeID{src}
	depth := 0
	for len(frontier) > 0 {
		depth++
		var next []NodeID
		for _, id := range frontier {
			n, ok := g.nodes[id]
			if !ok {
				continue
			}
			for _, r := range n.outRel {
				if relType != "" && r.Type != relType {
					continue
				}
				if r.To == dst {
					return depth
				}
				if !visited[r.To] {
					visited[r.To] = true
					next = append(next, r.To)
				}
			}
		}
		frontier = next
	}
	return -1
}

// AggregateByProp groups nodes of a label by a property value and counts
// the group sizes — the analytical-query shape of neo4j-analytics.
func (g *Graph) AggregateByProp(label, prop string) map[any]int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncObject()
	out := make(map[any]int)
	for _, id := range g.byLabel[label] {
		n := g.nodes[id]
		if v, ok := n.Props[prop]; ok {
			out[v]++
		}
	}
	return out
}

// TopDegree returns the k nodes of the label with the highest total
// degree, descending (ties by ascending ID).
func (g *Graph) TopDegree(label string, k int) []NodeID {
	metrics.IncSynch()
	g.mu.RLock()
	ids := append([]NodeID(nil), g.byLabel[label]...)
	type scored struct {
		id  NodeID
		deg int
	}
	metrics.IncArray()
	all := make([]scored, len(ids))
	for i, id := range ids {
		n := g.nodes[id]
		all[i] = scored{id, len(n.outRel) + len(n.inRel)}
	}
	g.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

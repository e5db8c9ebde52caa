// Package graphdb implements a small in-memory property-graph database
// with transactions and a traversal/query layer, in the style of an
// embedded Neo4J — the substrate of the neo4j-analytics benchmark
// (Table 1: "query processing, transactions"). Nodes carry labels and
// properties; relationships are typed and directed. Write transactions
// buffer their mutations in a typed log and apply them atomically at commit
// under the store lock; a query sees one consistent state for its whole
// duration. Storage is ordered by construction — the node table is indexed
// by ID and every label's node list is ascending — so queries return
// ordered results without sorting.
package graphdb

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"renaissance/internal/metrics"
)

// Errors returned by transaction operations.
var (
	ErrTxDone      = errors.New("graphdb: transaction already finished")
	ErrNodeMissing = errors.New("graphdb: node does not exist")
)

// NodeID identifies a node. IDs are positive and handed out in increasing
// order; zero is never a node.
type NodeID int64

// Node is a labelled property vertex; mutate through a transaction.
type Node struct {
	ID     NodeID
	Label  string
	Props  map[string]any
	outRel []edge // insertion order
	inRel  []edge // insertion order
}

// edge is one end of a relationship as its node stores it: the
// relationship's type and the node at the other end (To in an out-list,
// From in an in-list). Both ends share the property map.
type edge struct {
	Type  string
	Peer  NodeID
	Props map[string]any
}

// hasType reports whether the edge is of relType; the empty type matches all.
func (e *edge) hasType(relType string) bool {
	return relType == "" || e.Type == relType
}

// Graph is the store.
type Graph struct {
	mu sync.RWMutex
	// nodes is indexed by NodeID. An entry whose ID is zero is a gap: index
	// 0, and every ID taken by a transaction that has not committed (yet, or
	// ever).
	nodes   []Node
	live    int                 // entries of nodes that are not gaps
	byLabel map[string][]NodeID // ascending
	nextID  atomic.Int64
	// Commits counts committed write transactions.
	Commits int64
}

// New creates an empty graph.
func New() *Graph {
	metrics.IncObject()
	return &Graph{byLabel: make(map[string][]NodeID)}
}

// node returns the live node with the given ID, or nil. The pointer is into
// the node table: valid while g.mu is held and the table is not grown.
func (g *Graph) node(id NodeID) *Node {
	if id <= 0 || int(id) >= len(g.nodes) || g.nodes[id].ID == 0 {
		return nil
	}
	return &g.nodes[id]
}

// WriteTx starts a write transaction. Mutations are buffered and applied
// atomically on Commit; Rollback discards them.
func (g *Graph) WriteTx() *Tx {
	metrics.IncObject()
	return &Tx{g: g}
}

// Tx is a transaction handle, for use by one goroutine. Operations are
// validated and applied together at Commit under the store lock, so a
// transaction either takes full effect or none.
type Tx struct {
	g       *Graph
	done    bool
	ops     []txOp
	created []NodeID // nodes this tx will create, ascending
}

type opKind uint8

const (
	opCreate opKind = iota
	opRelate
)

// txOp is one staged mutation, interpreted by Commit.
type txOp struct {
	kind  opKind
	id    NodeID         // opCreate: the new node; opRelate: the from node
	to    NodeID         // opRelate only
	name  string         // opCreate: label; opRelate: relationship type
	props map[string]any // the caller's map as it was when the op was staged
}

// exists reports whether the node is live in the graph or staged by this
// transaction (valid to reference from later operations in the same tx).
func (t *Tx) exists(id NodeID) bool {
	if t.g.node(id) != nil {
		return true
	}
	_, staged := slices.BinarySearch(t.created, id)
	return staged
}

// CreateNode stages a node creation and returns its future ID. The
// properties are copied now; later changes to props do not reach the graph.
//
// IDs are assigned eagerly from the graph's counter so that staged
// relationships can reference staged nodes. An ID whose transaction never
// commits stays unused.
func (t *Tx) CreateNode(label string, props map[string]any) (NodeID, error) {
	if t.done {
		return 0, ErrTxDone
	}
	metrics.IncAtomic()
	id := NodeID(t.g.nextID.Add(1))
	t.created = append(t.created, id)
	t.ops = append(t.ops, txOp{kind: opCreate, id: id, name: label, props: cloneProps(props)})
	return id, nil
}

// Relate stages a directed relationship from -> to of the given type. The
// properties are copied now, as in CreateNode.
func (t *Tx) Relate(from, to NodeID, relType string, props map[string]any) error {
	if t.done {
		return ErrTxDone
	}
	t.ops = append(t.ops, txOp{kind: opRelate, id: from, to: to, name: relType, props: cloneProps(props)})
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
	for i := range t.ops {
		op := &t.ops[i]
		if op.kind != opRelate {
			continue
		}
		if !t.exists(op.id) {
			return fmt.Errorf("%w: %d", ErrNodeMissing, op.id)
		}
		if !t.exists(op.to) {
			return fmt.Errorf("%w: %d", ErrNodeMissing, op.to)
		}
	}
	if n := len(t.created); n > 0 {
		if grow := int(t.created[n-1]) + 1 - len(g.nodes); grow > 0 {
			g.nodes = append(g.nodes, make([]Node, grow)...)
		}
	}
	metrics.AddObject(int64(len(t.ops)))
	for i := range t.ops {
		op := &t.ops[i]
		switch op.kind {
		case opCreate:
			g.nodes[op.id] = Node{ID: op.id, Label: op.name, Props: op.props}
			g.live++
			g.byLabel[op.name] = insertAscending(g.byLabel[op.name], op.id)
		case opRelate:
			fn, tn := &g.nodes[op.id], &g.nodes[op.to]
			fn.outRel = append(fn.outRel, edge{Type: op.name, Peer: op.to, Props: op.props})
			tn.inRel = append(tn.inRel, edge{Type: op.name, Peer: op.id, Props: op.props})
		}
	}
	g.Commits++
	return nil
}

// insertAscending adds id to an ascending list: an append unless a
// transaction that took its IDs earlier commits later.
func insertAscending(ids []NodeID, id NodeID) []NodeID {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// Rollback discards the staged operations.
func (t *Tx) Rollback() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.ops, t.created = nil, nil
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
	return g.live
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
// type (empty type matches all) in the given direction, in the order the
// relationships were committed; Both lists outgoing before incoming.
func (g *Graph) Neighbors(id NodeID, relType string, dir Direction) []NodeID {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return nil
	}
	metrics.IncArray()
	var outs, ins []edge
	if dir == Outgoing || dir == Both {
		outs = n.outRel
	}
	if dir == Incoming || dir == Both {
		ins = n.inRel
	}
	count := countType(outs, relType) + countType(ins, relType)
	if count == 0 {
		return nil
	}
	return appendPeers(appendPeers(make([]NodeID, 0, count), outs, relType), ins, relType)
}

func countType(edges []edge, relType string) int {
	n := 0
	for i := range edges {
		if edges[i].hasType(relType) {
			n++
		}
	}
	return n
}

func appendPeers(out []NodeID, edges []edge, relType string) []NodeID {
	for i := range edges {
		if edges[i].hasType(relType) {
			out = append(out, edges[i].Peer)
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
// empty strings are wildcards. Rows are ordered by From, then To; parallel
// relationships between one pair of nodes keep the order they were
// committed in.
func (g *Graph) Match(fromLabel, relType, toLabel string) []MatchRow {
	metrics.IncSynch()
	g.mu.RLock()
	metrics.IncArray()
	count := 0
	g.eachMatch(fromLabel, relType, toLabel, func(NodeID, *edge) { count++ })
	var out []MatchRow
	if count > 0 {
		out = make([]MatchRow, 0, count)
		g.eachMatch(fromLabel, relType, toLabel, func(from NodeID, e *edge) {
			out = append(out, MatchRow{From: from, To: e.Peer, RelType: e.Type})
		})
	}
	g.mu.RUnlock()
	orderByTo(out)
	return out
}

// eachMatch visits the out-edges the pattern selects, by ascending from-node
// and, within one node, in insertion order. The caller holds g.mu.
func (g *Graph) eachMatch(fromLabel, relType, toLabel string, visit func(from NodeID, e *edge)) {
	node := func(n *Node) {
		for i := range n.outRel {
			e := &n.outRel[i]
			if e.hasType(relType) && (toLabel == "" || g.nodes[e.Peer].Label == toLabel) {
				visit(n.ID, e)
			}
		}
	}
	if fromLabel != "" {
		for _, id := range g.byLabel[fromLabel] {
			node(&g.nodes[id])
		}
		return
	}
	for i := range g.nodes {
		if n := &g.nodes[i]; n.ID != 0 {
			node(n)
		}
	}
}

// orderByTo puts each run of rows that share a From into ascending To with
// a stable insertion sort; the rows arrive by ascending From. One pass when
// the runs are already ordered, quadratic only in a single node's matched
// out-degree.
func orderByTo(rows []MatchRow) {
	for i := 1; i < len(rows); i++ {
		r := rows[i]
		j := i
		for ; j > 0 && rows[j-1].From == r.From && rows[j-1].To > r.To; j-- {
			rows[j] = rows[j-1]
		}
		rows[j] = r
	}
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
	if g.node(src) == nil {
		return -1
	}
	// Breadth-first over a bitmap of seen IDs and one queue: a node is queued
	// at most once, so the queue never outgrows the live-node count.
	seen := make([]uint64, len(g.nodes)/64+1)
	seen[src/64] |= 1 << (src % 64)
	queue := make([]NodeID, 1, g.live)
	queue[0] = src
	for head, depth := 0, 1; head < len(queue); depth++ {
		for end := len(queue); head < end; head++ {
			for _, e := range g.nodes[queue[head]].outRel {
				if !e.hasType(relType) {
					continue
				}
				if e.Peer == dst {
					return depth
				}
				if bit := uint64(1) << (e.Peer % 64); seen[e.Peer/64]&bit == 0 {
					seen[e.Peer/64] |= bit
					queue = append(queue, e.Peer)
				}
			}
		}
	}
	return -1
}

// AggregateByProp groups nodes of a label by a property value and counts
// the group sizes — the analytical-query shape of neo4j-analytics. A value
// that cannot be a map key (a slice, a map, a function, or a composite
// holding one) is skipped.
func (g *Graph) AggregateByProp(label, prop string) map[any]int {
	metrics.IncSynch()
	g.mu.RLock()
	defer g.mu.RUnlock()
	metrics.IncObject()
	out := make(map[any]int)
	for _, id := range g.byLabel[label] {
		if v, ok := g.nodes[id].Props[prop]; ok && hashable(v) {
			out[v]++
		}
	}
	return out
}

// hashable reports whether v can be a key of a map[any]: hashing a value of
// a non-comparable dynamic type panics.
func hashable(v any) bool {
	return v == nil || reflect.ValueOf(v).Comparable()
}

// TopDegree returns the k nodes of the label with the highest total
// degree, descending (ties by ascending ID).
func (g *Graph) TopDegree(label string, k int) []NodeID {
	type scored struct {
		id  NodeID
		deg int
	}
	metrics.IncSynch()
	g.mu.RLock()
	metrics.IncArray()
	ids := g.byLabel[label]
	all := make([]scored, len(ids))
	for i, id := range ids {
		n := &g.nodes[id]
		all[i] = scored{id, len(n.outRel) + len(n.inRel)}
	}
	g.mu.RUnlock()
	slices.SortFunc(all, func(a, b scored) int {
		if a.deg != b.deg {
			return cmp.Compare(b.deg, a.deg)
		}
		return cmp.Compare(a.id, b.id)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]NodeID, k)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

package graphdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// buildSocial creates a small social graph: users following users, users
// posting messages.
func buildSocial(t *testing.T) (*Graph, []NodeID, []NodeID) {
	t.Helper()
	g := New()
	tx := g.WriteTx()
	var users, posts []NodeID
	for i := 0; i < 5; i++ {
		id, err := tx.CreateNode("User", map[string]any{"name": fmt.Sprintf("u%d", i), "region": i % 2})
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, id)
	}
	for i := 0; i < 3; i++ {
		id, err := tx.CreateNode("Post", map[string]any{"len": i * 10})
		if err != nil {
			t.Fatal(err)
		}
		posts = append(posts, id)
	}
	// u0 -> u1 -> u2 -> u3 -> u4 (FOLLOWS chain), u0 -> u2 as a shortcut.
	for i := 0; i < 4; i++ {
		if err := tx.Relate(users[i], users[i+1], "FOLLOWS", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Relate(users[0], users[2], "FOLLOWS", nil); err != nil {
		t.Fatal(err)
	}
	// u0 posted all three posts.
	for _, p := range posts {
		if err := tx.Relate(users[0], p, "POSTED", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return g, users, posts
}

func TestCreateAndQuery(t *testing.T) {
	g, users, posts := buildSocial(t)
	if g.NodeCount() != 8 {
		t.Errorf("NodeCount = %d, want 8", g.NodeCount())
	}
	if got := g.byLabel["User"]; len(got) != 5 {
		t.Errorf("Users = %v", got)
	}
	if got := g.byLabel["Post"]; len(got) != len(posts) {
		t.Errorf("Posts = %v", got)
	}
	if n := g.node(users[0]); n == nil || n.Label != "User" || n.Props["name"] != "u0" {
		t.Errorf("node u0 = %+v", n)
	}
	if g.node(9999) != nil || g.node(0) != nil {
		t.Error("found nonexistent node")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g, users, _ := buildSocial(t)
	out := g.Neighbors(users[0], "FOLLOWS", Outgoing)
	if len(out) != 2 { // u1 and u2
		t.Errorf("u0 FOLLOWS out = %v", out)
	}
	in := g.Neighbors(users[2], "FOLLOWS", Incoming)
	if len(in) != 2 { // u1 and u0
		t.Errorf("u2 FOLLOWS in = %v", in)
	}
	both := g.Neighbors(users[2], "", Both)
	if len(both) != 3 {
		t.Errorf("u2 all both = %v", both)
	}
	if d := len(g.Neighbors(users[0], "", Outgoing)); d != 5 { // 2 follows + 3 posted
		t.Errorf("u0 out-degree = %d", d)
	}
	if d := len(g.Neighbors(9999, "", Both)); d != 0 {
		t.Errorf("missing node degree = %d", d)
	}
}

func TestMatch(t *testing.T) {
	g, _, _ := buildSocial(t)
	follows := g.Match("User", "FOLLOWS", "User")
	if len(follows) != 5 {
		t.Errorf("FOLLOWS matches = %d, want 5", len(follows))
	}
	posted := g.Match("User", "POSTED", "Post")
	if len(posted) != 3 {
		t.Errorf("POSTED matches = %d, want 3", len(posted))
	}
	// Wildcards.
	all := g.Match("", "", "")
	if len(all) != 8 {
		t.Errorf("all matches = %d, want 8", len(all))
	}
	if len(g.Match("User", "POSTED", "User")) != 0 {
		t.Error("type-mismatched match returned rows")
	}
}

func TestShortestPath(t *testing.T) {
	g, users, _ := buildSocial(t)
	if d := g.ShortestPath(users[0], users[4], "FOLLOWS"); d != 3 {
		t.Errorf("u0->u4 = %d, want 3 (via shortcut)", d)
	}
	if d := g.ShortestPath(users[0], users[0], "FOLLOWS"); d != 0 {
		t.Errorf("self path = %d", d)
	}
	if d := g.ShortestPath(users[4], users[0], "FOLLOWS"); d != -1 {
		t.Errorf("reverse path = %d, want -1 (directed)", d)
	}
}

func TestAggregateByProp(t *testing.T) {
	g, _, _ := buildSocial(t)
	byRegion := g.AggregateByProp("User", "region")
	if byRegion[0] != 3 || byRegion[1] != 2 {
		t.Errorf("byRegion = %v", byRegion)
	}
}

func TestTopDegree(t *testing.T) {
	g, users, _ := buildSocial(t)
	top := g.TopDegree("User", 2)
	if len(top) != 2 || top[0] != users[0] {
		t.Errorf("top = %v, want u0 first", top)
	}
	all := g.TopDegree("User", 100)
	if len(all) != 5 {
		t.Errorf("topDegree clamped = %d", len(all))
	}
}

func TestRollback(t *testing.T) {
	g := New()
	tx := g.WriteTx()
	if _, err := tx.CreateNode("X", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 0 {
		t.Errorf("rollback left %d nodes", g.NodeCount())
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("commit after rollback err = %v", err)
	}
}

func TestFailedCommitIsAtomic(t *testing.T) {
	g := New()
	tx := g.WriteTx()
	id, _ := tx.CreateNode("X", nil)
	if err := tx.Relate(id, 9999, "R", nil); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("commit err = %v", err)
	}
	if g.NodeCount() != 0 {
		t.Errorf("failed commit applied %d nodes; not atomic", g.NodeCount())
	}
	if g.Commits != 0 {
		t.Errorf("Commits = %d", g.Commits)
	}
}

func TestTxDoneGuards(t *testing.T) {
	g := New()
	tx := g.WriteTx()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateNode("X", nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("CreateNode err = %v", err)
	}
	if err := tx.Relate(1, 2, "R", nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("Relate err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Rollback err = %v", err)
	}
}

func TestStagedNodeRelations(t *testing.T) {
	// Relating two nodes created in the same transaction must work.
	g := New()
	tx := g.WriteTx()
	a, _ := tx.CreateNode("A", nil)
	b, _ := tx.CreateNode("B", nil)
	if err := tx.Relate(a, b, "R", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(a, "R", Outgoing); len(got) != 1 || got[0] != b {
		t.Errorf("neighbors = %v", got)
	}
}

func TestConcurrentWriters(t *testing.T) {
	g := New()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := g.WriteTx()
				a, _ := tx.CreateNode("N", map[string]any{"w": w})
				b, _ := tx.CreateNode("N", nil)
				_ = tx.Relate(a, b, "LINK", nil)
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.NodeCount() != writers*perWriter*2 {
		t.Errorf("NodeCount = %d, want %d", g.NodeCount(), writers*perWriter*2)
	}
	if g.Commits != writers*perWriter {
		t.Errorf("Commits = %d", g.Commits)
	}
	if rows := g.Match("N", "LINK", "N"); len(rows) != writers*perWriter {
		t.Errorf("LINK rows = %d", len(rows))
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	g, users, _ := buildSocial(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := g.WriteTx()
			id, _ := tx.CreateNode("Extra", nil)
			_ = tx.Relate(users[0], id, "POSTED", nil)
			_ = tx.Commit()
		}
	}()
	for i := 0; i < 200; i++ {
		// Readers should always see a consistent FOLLOWS subgraph.
		if got := g.Match("User", "FOLLOWS", "User"); len(got) != 5 {
			t.Fatalf("FOLLOWS rows = %d mid-write", len(got))
		}
	}
	close(stop)
	wg.Wait()
}

func TestPropsSnapshotAtStage(t *testing.T) {
	// The graph holds the properties as they were when the operation was
	// staged; the caller may reuse its map before Commit.
	g := New()
	tx := g.WriteTx()
	m := map[string]any{"v": 1}
	a, _ := tx.CreateNode("X", m)
	m["v"] = 2
	b, _ := tx.CreateNode("X", m)
	if err := tx.Relate(a, b, "R", m); err != nil {
		t.Fatal(err)
	}
	m["v"] = 3
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := g.AggregateByProp("X", "v"); len(got) != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("AggregateByProp = %v, want map[1:1 2:1]", got)
	}
	if got := g.node(a).outRel[0].Props["v"]; got != 2 {
		t.Errorf("relationship v = %v, want 2", got)
	}
}

func TestAggregateSkipsUnhashableProp(t *testing.T) {
	g := New()
	tx := g.WriteTx()
	for _, v := range []any{[]string{"a"}, map[string]int{}, [1]any{[]int{1}}, "a", "a", nil} {
		if _, err := tx.CreateNode("X", map[string]any{"tags": v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := g.AggregateByProp("X", "tags")
	if len(got) != 2 || got["a"] != 2 || got[nil] != 1 {
		t.Errorf("AggregateByProp = %v, want map[<nil>:1 a:2]", got)
	}
}

// TestAllocationGates pins the read path's allocation counts: a query makes
// its result in one allocation however many rows it returns, and staging a
// relationship costs no more than the log's own growth.
func TestAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const nodes, degree = 400, 6
	g := New()
	tx := g.WriteTx()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i], _ = tx.CreateNode("N", nil)
	}
	for i := range ids {
		for k := 1; k <= degree; k++ {
			_ = tx.Relate(ids[i], ids[(i+k*k)%nodes], "R", nil)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	gates := []struct {
		name string
		max  float64
		run  func()
	}{
		{"Match", 1, func() {
			if rows := g.Match("N", "R", "N"); len(rows) != nodes*degree {
				t.Fatalf("Match returned %d rows", len(rows))
			}
		}},
		{"Match wildcard", 1, func() { g.Match("", "", "") }},
		{"Neighbors", 1, func() { g.Neighbors(ids[0], "R", Both) }},
		{"ShortestPath", 2, func() {
			if d := g.ShortestPath(ids[0], ids[nodes/2], "R"); d < 1 {
				t.Fatalf("ShortestPath = %d", d)
			}
		}},
	}
	for _, gate := range gates {
		if got := testing.AllocsPerRun(20, gate.run); got > gate.max {
			t.Errorf("%s: %v allocations, want <= %v", gate.name, got, gate.max)
		}
	}

	// Relate appends a value record to a log with room: no closure, no box.
	wtx := g.WriteTx()
	wtx.ops = make([]txOp, 0, 64)
	if got := testing.AllocsPerRun(20, func() { _ = wtx.Relate(ids[0], ids[1], "R", nil) }); got != 0 {
		t.Errorf("Relate: %v allocations staging into a log with room, want 0", got)
	}
}

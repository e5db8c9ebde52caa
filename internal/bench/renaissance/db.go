package renaissance

import (
	"fmt"
	"sync"

	"renaissance/internal/core"
	"renaissance/internal/graphdb"
	"renaissance/internal/memdb"
)

func init() {
	register("db-shootout",
		"Parallel shootout across the in-memory key-value engines.",
		[]string{"query-processing", "data structures"}, newDBShootout)
	register("neo4j-analytics",
		"Analytical queries and transactions on the property-graph store.",
		[]string{"query processing", "transactions"}, newNeo4jAnalytics)
}

// --- db-shootout ---

type dbShootoutWorkload struct {
	keys    int
	ops     int
	workers int
	lens    []int
}

func newDBShootout(cfg core.Config) (core.Workload, error) {
	return &dbShootoutWorkload{
		keys:    cfg.Scale(2000),
		ops:     cfg.Scale(4000),
		workers: 4,
	}, nil
}

func (w *dbShootoutWorkload) RunIteration() error {
	w.lens = w.lens[:0]
	for _, engine := range memdb.Engines() {
		// Load phase.
		for i := 0; i < w.keys; i++ {
			engine.Put(shootoutKey(i), []byte{byte(i), byte(i >> 8)})
		}
		// Parallel mixed phase: the same deterministic op stream split
		// across workers (disjoint key ranges avoid cross-engine
		// divergence from racy overwrites).
		var wg sync.WaitGroup
		for g := 0; g < w.workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				state := uint64(g + 1)
				lo := g * w.keys / w.workers
				hi := (g + 1) * w.keys / w.workers
				for i := 0; i < w.ops/w.workers; i++ {
					state = state*6364136223846793005 + 1442695040888963407
					k := lo + int((state>>33)%uint64(hi-lo))
					key := shootoutKey(k)
					switch (state >> 20) % 10 {
					case 0, 1, 2, 3, 4, 5: // reads dominate
						engine.Get(key)
					case 6, 7:
						engine.Put(key, []byte{byte(i)})
					case 8:
						engine.Range(key, key+"~", func(string, []byte) bool { return false })
					case 9:
						engine.Delete(key)
						engine.Put(key, []byte{byte(i)}) // keep key population stable
					}
				}
			}(g)
		}
		wg.Wait()
		w.lens = append(w.lens, engine.Len())
	}
	return nil
}

// shootoutKey formats k >= 0 as fmt.Sprintf("key-%06d", k) does, in one
// allocation: the workload measures the engines, not fmt.
func shootoutKey(k int) string {
	var buf [len("key-") + 20]byte
	i := len(buf)
	for ; k > 0 || i > len(buf)-6; k /= 10 {
		i--
		buf[i] = byte('0' + k%10)
	}
	i -= len("key-")
	copy(buf[i:], "key-")
	return string(buf[i:])
}

func (w *dbShootoutWorkload) Validate() error {
	if len(w.lens) != 3 {
		return fmt.Errorf("db-shootout: %d engines ran", len(w.lens))
	}
	for i := 1; i < len(w.lens); i++ {
		if w.lens[i] != w.lens[0] {
			return fmt.Errorf("db-shootout: engines disagree on size: %v", w.lens)
		}
	}
	if w.lens[0] != w.keys {
		return fmt.Errorf("db-shootout: size %d, want %d", w.lens[0], w.keys)
	}
	return nil
}

// --- neo4j-analytics ---

type neo4jWorkload struct {
	users   int
	follows int
	txOps   int
	checked bool
}

func newNeo4jAnalytics(cfg core.Config) (core.Workload, error) {
	return &neo4jWorkload{
		users:   cfg.Scale(300),
		follows: 6,
		txOps:   cfg.Scale(120),
	}, nil
}

func (w *neo4jWorkload) RunIteration() error {
	g := graphdb.New()

	// Build a follower graph in batched transactions.
	ids := make([]graphdb.NodeID, w.users)
	const batch = 50
	for lo := 0; lo < w.users; lo += batch {
		tx := g.WriteTx()
		hi := lo + batch
		if hi > w.users {
			hi = w.users
		}
		for i := lo; i < hi; i++ {
			id, err := tx.CreateNode("User", map[string]any{"region": i % 4})
			if err != nil {
				return err
			}
			ids[i] = id
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	tx := g.WriteTx()
	for i := 0; i < w.users; i++ {
		for k := 1; k <= w.follows; k++ {
			if err := tx.Relate(ids[i], ids[(i+k*k)%w.users], "FOLLOWS", nil); err != nil {
				return err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// Concurrent analytics + write transactions.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < w.txOps; i++ {
				switch i % 4 {
				case 0:
					rows := g.Match("User", "FOLLOWS", "User")
					if len(rows) < w.users*w.follows {
						errCh <- fmt.Errorf("neo4j-analytics: %d FOLLOWS rows, want >= %d",
							len(rows), w.users*w.follows)
						return
					}
				case 1:
					byRegion := g.AggregateByProp("User", "region")
					total := 0
					for _, n := range byRegion {
						total += n
					}
					if total != w.users {
						errCh <- fmt.Errorf("neo4j-analytics: aggregate covers %d users", total)
						return
					}
				case 2:
					if d := g.ShortestPath(ids[0], ids[w.users/2], "FOLLOWS"); d < 0 {
						errCh <- fmt.Errorf("neo4j-analytics: no path across the graph")
						return
					}
				case 3:
					wtx := g.WriteTx()
					id, err := wtx.CreateNode("Post", map[string]any{"by": worker})
					if err == nil {
						err = wtx.Relate(ids[(worker*31+i)%w.users], id, "POSTED", nil)
					}
					if err == nil {
						err = wtx.Commit()
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	top := g.TopDegree("User", 5)
	if len(top) != 5 {
		return fmt.Errorf("neo4j-analytics: top-degree query returned %d rows", len(top))
	}
	w.checked = true
	return nil
}

func (w *neo4jWorkload) Validate() error {
	if !w.checked {
		return fmt.Errorf("neo4j-analytics: queries never verified")
	}
	return nil
}

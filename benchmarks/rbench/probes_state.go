package rbench

import (
	"fmt"
	"strconv"

	"renaissance/internal/graphdb"
	"renaissance/internal/memdb"
	"renaissance/internal/metrics"
	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
	"renaissance/internal/stm"
)

var stateProbes = []probe{
	{metrics: defs("ns", "stm.commit_ns"), run: func(pc *probeCtx) ([]float64, error) {
		txs := pc.n(150_000)
		ref := stm.NewRef(0)
		var err error
		ns := timed(func() {
			for i := 0; i < txs && err == nil; i++ {
				err = stm.Atomically(func(tx *stm.Tx) error {
					tx.Write(ref, tx.Read(ref).(int)+1)
					return nil
				})
			}
		})
		if got := stm.ReadAtomic(ref); err == nil && got != txs {
			err = fmt.Errorf("counter reads %v after %d commits", got, txs)
		}
		return []float64{ns / float64(txs)}, err
	}},
	{metrics: defs("ns", "stm.readonly_ns_per_ref"), run: func(pc *probeCtx) ([]float64, error) {
		// Read-only traversals, the stm-bench7 majority operation.
		const width = 64
		txs := pc.n(15_000)
		refs := make([]*stm.Ref, width)
		for i := range refs {
			refs[i] = stm.NewRef(i)
		}
		var err error
		sum := 0
		ns := timed(func() {
			for i := 0; i < txs && err == nil; i++ {
				err = stm.Atomically(func(tx *stm.Tx) error {
					sum = 0
					for _, r := range refs {
						sum += tx.Read(r).(int)
					}
					return nil
				})
			}
		})
		if err == nil && sum != width*(width-1)/2 {
			err = fmt.Errorf("read-only traversal summed %d", sum)
		}
		return []float64{ns / float64(txs*width)}, err
	}},
	{
		// Every processor increments the same four refs: time per commit
		// and the share of attempts the conflicts wasted.
		metrics: []MetricDef{{Name: "stm.contended_ns", Unit: "ns"}, {Name: "stm.abort_ratio", Unit: "ratio"}},
		run: func(pc *probeCtx) ([]float64, error) {
			per := pc.n(100_000)
			refs := []*stm.Ref{stm.NewRef(0), stm.NewRef(0), stm.NewRef(0), stm.NewRef(0)}
			aborts := metrics.Default.Get(metrics.StmAbort)
			ns := timed(func() {
				onProcs(pc.procs, func(g int) {
					for i := 0; i < per; i++ {
						r := refs[(g+i)%len(refs)]
						// The body returns nil, so Atomically cannot fail.
						_ = stm.Atomically(func(tx *stm.Tx) error {
							tx.Write(r, tx.Read(r).(int)+1)
							return nil
						})
					}
				})
			})
			aborts = metrics.Default.Get(metrics.StmAbort) - aborts
			commits, total := int64(per*pc.procs), 0
			for _, r := range refs {
				total += stm.ReadAtomic(r).(int)
			}
			if int64(total) != commits {
				return nil, fmt.Errorf("contended counters sum to %d after %d commits", total, commits)
			}
			return []float64{ns / float64(commits), float64(aborts) / float64(aborts+commits)}, nil
		},
	},
	{metrics: defs("us", "stm.retry_wake_us"), run: func(pc *probeCtx) ([]float64, error) {
		// Two goroutines hand a token back and forth, each blocking in
		// Retry until the other commits: the philosophers wake-up path.
		handoffs := pc.n(4000)
		turn := stm.NewRef(0)
		pass := func(me int) {
			for i := 0; i < handoffs; i++ {
				_ = stm.Atomically(func(tx *stm.Tx) error { // nil body error, as above
					if tx.Read(turn).(int) != me {
						tx.Retry()
					}
					tx.Write(turn, 1-me)
					return nil
				})
			}
		}
		ns := timed(func() { onProcs(2, pass) })
		return []float64{ns / 1e3 / float64(2*handoffs)}, nil
	}},
	memdbProbe("btree", func() memdb.Store { return memdb.NewBTree() }),
	memdbProbe("skiplist", func() memdb.Store { return memdb.NewSkipList() }),
	memdbProbe("hash", func() memdb.Store { return memdb.NewShardedHash(16) }),
	{metrics: defs("us", "graphdb.tx_commit_us"), run: func(pc *probeCtx) ([]float64, error) {
		txs := pc.n(6000)
		g := graphdb.New()
		var err error
		ns := timed(func() {
			for i := 0; i < txs && err == nil; i++ {
				err = relatePair(g, i)
			}
		})
		if err == nil && g.NodeCount() != 2*txs {
			err = fmt.Errorf("graph holds %d nodes after %d commits of two", g.NodeCount(), txs)
		}
		return []float64{ns / 1e3 / float64(txs)}, err
	}},
	{metrics: defs("ns", "graphdb.traverse_ns_per_edge"), run: func(pc *probeCtx) ([]float64, error) {
		const degree, passes = 8, 10
		nodes := pc.n(3000)
		g := graphdb.New()
		tx := g.WriteTx()
		ids := make([]graphdb.NodeID, nodes)
		for i := range ids {
			id, err := tx.CreateNode("N", nil)
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		for i, to := range pc.ints("graphdb", nodes*degree) {
			if err := tx.Relate(ids[i/degree], ids[to%nodes], "R", nil); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		edges := 0
		ns := timed(func() {
			for p := 0; p < passes; p++ {
				for _, id := range ids {
					edges += len(g.Neighbors(id, "R", graphdb.Outgoing))
				}
			}
		})
		if edges != passes*nodes*degree {
			return nil, fmt.Errorf("traversal saw %d edges, want %d", edges, passes*nodes*degree)
		}
		return []float64{ns / float64(edges)}, nil
	}},
}

func relatePair(g *graphdb.Graph, i int) error {
	tx := g.WriteTx()
	a, err := tx.CreateNode("N", map[string]any{"i": i})
	if err != nil {
		return err
	}
	b, err := tx.CreateNode("N", nil)
	if err != nil {
		return err
	}
	if err := tx.Relate(a, b, "R", nil); err != nil {
		return err
	}
	return tx.Commit()
}

// memdbProbe loads one engine with seeded keys in random order, then reads
// every key back, on one goroutine. db-shootout is the put-heavy user of
// these engines and finagle-chirper's feed cache the get-heavy one.
func memdbProbe(name string, mk func() memdb.Store) probe {
	return probe{
		metrics: defs("ns", "memdb."+name+"_put_ns", "memdb."+name+"_get_ns"),
		run: func(pc *probeCtx) ([]float64, error) {
			ids := pc.ints("memdb", pc.n(30_000))
			keys := make([]string, len(ids))
			for i, id := range ids {
				keys[i] = "user" + strconv.Itoa(id)
			}
			val := []byte("0123456789abcdef")
			db := mk()
			put := timed(func() {
				for _, k := range keys {
					db.Put(k, val)
				}
			})
			hits := 0
			get := timed(func() {
				for _, k := range keys {
					if _, ok := db.Get(k); ok {
						hits++
					}
				}
			})
			if hits != len(keys) {
				return nil, fmt.Errorf("%s found %d of %d keys", name, hits, len(keys))
			}
			return []float64{put / float64(len(keys)), get / float64(len(keys))}, nil
		},
	}
}

var compilerProbes = []probe{
	{
		// The dotty pipeline stage by stage over the same corpus dotty
		// compiles; each stage gets fresh input from the one before.
		metrics: defs("us", "minilang.parse_us_per_unit", "minilang.check_us_per_unit", "minilang.codegen_us_per_unit"),
		run: func(pc *probeCtx) ([]float64, error) {
			corpus := minilang.Corpus(pc.n(96))
			asts := make([]*minilang.ProgramAST, len(corpus))
			var err error
			parse := timed(func() {
				for i, src := range corpus {
					if asts[i], err = minilang.Parse(src); err != nil {
						return
					}
				}
			})
			if err != nil {
				return nil, err
			}
			check := timed(func() {
				for _, ast := range asts {
					if err = minilang.Check(ast); err != nil {
						return
					}
				}
			})
			if err != nil {
				return nil, err
			}
			codegen := timed(func() {
				for _, ast := range asts {
					if sink, err = minilang.Generate(ast); err != nil {
						return
					}
				}
			})
			units := float64(len(corpus)) * 1e3
			return []float64{parse / units, check / units, codegen / units}, err
		},
	},
	{
		// The compiled corpus on a fresh interpreter per unit, as dotty
		// runs it, pinned to each tier in turn. The instruction count
		// comes from Interp.Counters and must repeat exactly.
		metrics: []MetricDef{
			{Name: "rvm.tier0_ns_per_op", Unit: "ns"}, {Name: "rvm.tier1_ns_per_op", Unit: "ns"}, {Name: "rvm.auto_ns_per_op", Unit: "ns"},
			{Name: "rvm.ops_per_unit", Unit: "count"}, {Name: "rvm.ic_hit_rate", Unit: "ratio"},
		},
		run: func(pc *probeCtx) ([]float64, error) {
			corpus := minilang.Corpus(pc.n(16))
			progs := make([]*rvm.Program, len(corpus))
			for i, src := range corpus {
				p, err := minilang.Compile(src)
				if err != nil {
					return nil, err
				}
				progs[i] = p
			}
			var ops int64
			pass := func(tier rvm.TierPolicy) (float64, error) {
				ops = 0
				var err error
				ns := timed(func() {
					for _, p := range progs {
						vm := rvm.NewInterp(p)
						vm.Tier = tier
						if _, err = vm.Run(); err != nil {
							return
						}
						ops += vm.Counters.Executed
					}
				})
				return ns / float64(max(1, ops)), err
			}
			out := make([]float64, 0, 5)
			for _, tier := range []rvm.TierPolicy{rvm.TierBaseline, rvm.TierQuick, rvm.TierAuto} {
				v, err := pass(tier)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			out = append(out, float64(ops)/float64(len(progs)))
			// The inline-cache hit rate needs the global profile
			// collector, which slows the interpreter: a pass of its own.
			rvm.ResetProfile()
			rvm.EnableProfiling()
			_, err := pass(rvm.TierAuto)
			rvm.DisableProfiling()
			return append(out, rvm.ICHitRate()), err
		},
	},
}

package rbench

import (
	"fmt"
	"runtime"
	"time"

	"renaissance/internal/actors"
	"renaissance/internal/core"
	"renaissance/internal/futures"
	"renaissance/internal/hdr"
	"renaissance/internal/loadgen"
	"renaissance/internal/mpsc"
	"renaissance/internal/netstack"
	"renaissance/internal/rx"
)

var messagingProbes = []probe{
	{metrics: defs("ns", "actors.pingpong_ns_per_msg"), run: func(pc *probeCtx) ([]float64, error) {
		msgs := pc.n(150_000)
		sys := actors.NewSystem(pc.procs)
		defer sys.Shutdown()
		done := make(chan struct{})
		pong := sys.Spawn("pong", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			ctx.Reply(msg.(int) + 1)
		}))
		ping := sys.Spawn("ping", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			if n := msg.(int); n >= msgs {
				close(done)
			} else {
				ctx.Send(pong, n+1)
			}
		}))
		ns := timed(func() {
			ping.Tell(0)
			<-done
		})
		return []float64{ns / float64(msgs)}, nil
	}},
	{metrics: defs("ns", "actors.fanin_ns_per_msg"), run: func(pc *probeCtx) ([]float64, error) {
		per := pc.n(60_000)
		sys := actors.NewSystem(pc.procs)
		defer sys.Shutdown()
		got := 0
		counter := sys.Spawn("counter", actors.ReceiverFunc(func(*actors.Context, any) { got++ }))
		ns := timed(func() {
			onProcs(pc.procs, func(g int) {
				for i := 0; i < per; i++ {
					counter.Tell(g)
				}
			})
			sys.AwaitQuiescence()
		})
		if got != per*pc.procs {
			return nil, fmt.Errorf("fan-in delivered %d of %d messages", got, per*pc.procs)
		}
		return []float64{ns / float64(per*pc.procs)}, nil
	}},
	{metrics: defs("ns", "actors.spawn_ns"), run: func(pc *probeCtx) ([]float64, error) {
		// A parent spawns children and sends each one message, the
		// akka-uct step.
		children := pc.n(40_000)
		sys := actors.NewSystem(pc.procs)
		defer sys.Shutdown()
		leaf := actors.ReceiverFunc(func(*actors.Context, any) {})
		root := sys.Spawn("root", actors.ReceiverFunc(func(ctx *actors.Context, _ any) {
			for i := 0; i < children; i++ {
				ctx.Send(ctx.Spawn("leaf", leaf), i)
			}
		}))
		ns := timed(func() {
			root.Tell("go")
			sys.AwaitQuiescence()
		})
		if n := sys.DeadLetterCount(); n != 0 {
			return nil, fmt.Errorf("%d dead letters while spawning", n)
		}
		return []float64{ns / float64(children)}, nil
	}},
	{metrics: defs("ns", "actors.ask_ns"), run: func(pc *probeCtx) ([]float64, error) {
		asks := pc.n(15_000)
		sys := actors.NewSystem(pc.procs)
		defer sys.Shutdown()
		echo := sys.Spawn("echo", actors.ReceiverFunc(func(ctx *actors.Context, msg any) { ctx.Reply(msg) }))
		ns := timed(func() {
			for i := 0; i < asks; i++ {
				if got := <-echo.Ask(i); got != i {
					panic(fmt.Sprintf("ask %d answered %v", i, got))
				}
			}
		})
		return []float64{ns / float64(asks)}, nil
	}},
	{metrics: defs("ns", "mpsc.enq_deq_ns"), run: func(pc *probeCtx) ([]float64, error) {
		// One producer, one consumer; the mailbox case.
		items := pc.n(300_000)
		q := mpsc.New(mpsc.NewPool[int]())
		sum := 0
		ns := timed(func() {
			go func() {
				for i := 1; i <= items; i++ {
					q.Push(i)
				}
			}()
			for got := 0; got < items; {
				if v, ok := q.Pop(); ok {
					sum += v
					got++
				} else {
					runtime.Gosched()
				}
			}
		})
		if want := items * (items + 1) / 2; sum != want {
			return nil, fmt.Errorf("queue delivered sum %d, want %d", sum, want)
		}
		return []float64{ns / float64(items)}, nil
	}},
	{metrics: defs("ns", "rx.pipeline_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(1_000_000)
		got, err := 0, error(nil)
		ns := timed(func() {
			evens := rx.Filter(rx.Map(rx.Range(0, n), func(x int) int { return x * 3 }), func(x int) bool { return x&1 == 0 })
			got, err = rx.Reduce(evens, 0, func(a, _ int) int { return a + 1 }).BlockingLast()
		})
		if err != nil || got != (n+1)/2 {
			return nil, fmt.Errorf("rx pipeline counted %d of %d, %v", got, (n+1)/2, err)
		}
		return []float64{ns / float64(n)}, nil
	}},
	{metrics: defs("ns", "rx.observeon_ns_per_elem"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(150_000)
		sched := rx.NewScheduler()
		defer sched.Close()
		got, err := 0, error(nil)
		ns := timed(func() {
			got, err = rx.Reduce(rx.ObserveOn(rx.Range(0, n), sched), 0, func(a, _ int) int { return a + 1 }).BlockingLast()
		})
		if err != nil || got != n {
			return nil, fmt.Errorf("rx observeOn counted %d of %d, %v", got, n, err)
		}
		return []float64{ns / float64(n)}, nil
	}},
}

// openLoopRate is the offered load of the open-loop probes, requests per
// second: about a tenth of what finagle-chirper sustains closed-loop on
// two cores, so a queue that grows is the service stalling, not overload.
const openLoopRate = 1500

// nullTarget answers at once, so what loadgen records against it is only
// how late its own generator fired.
type nullTarget struct{}

func (nullTarget) Send(uint64) error { return nil }
func (nullTarget) Close() error      { return nil }

func chirper(pc *probeCtx) (loadgen.Target, error) {
	return loadgen.NewTarget("finagle-chirper", core.Config{SizeFactor: 1, Seed: pc.seed})
}

func openLoop(pc *probeCtx, t loadgen.Target, seconds float64) (*loadgen.Result, error) {
	d := time.Duration(seconds * pc.scale * float64(time.Second))
	return loadgen.Run(t, loadgen.Options{Rate: openLoopRate, Duration: max(d, 20*time.Millisecond), Seed: pc.seed})
}

var servingProbes = []probe{
	{metrics: defs("us", "netstack.rtt_us"), run: func(pc *probeCtx) ([]float64, error) {
		srv, err := netstack.Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] { return futures.Completed(req) })
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		cl, err := netstack.Dial(srv.Addr(), 1)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		calls, req := pc.n(1500), []byte("rbench--")
		ns := timed(func() {
			for i := 0; i < calls && err == nil; i++ {
				_, err = cl.CallSync(req)
			}
		})
		return []float64{ns / 1e3 / float64(calls)}, err
	}},
	{metrics: defs("1/s", "netstack.closed_rps"), run: func(pc *probeCtx) ([]float64, error) {
		t, err := chirper(pc)
		if err != nil {
			return nil, err
		}
		defer t.Close()
		res, err := loadgen.RunClosed(t, pc.procs, pc.n(1500))
		if err != nil {
			return nil, err
		}
		if res.Completed != res.Offered {
			return nil, fmt.Errorf("closed loop completed %d of %d requests", res.Completed, res.Offered)
		}
		return []float64{res.Throughput()}, nil
	}},
	{
		// Open loop through loadgen against the chirper service for 2 s:
		// latency from the intended send time, and every request that was
		// shed, rejected, dropped or failed counted against those offered.
		metrics: []MetricDef{{Name: "netstack.open_p50_us", Unit: "us"}, {Name: "netstack.open_p99_us", Unit: "us"}, {Name: "netstack.open_fail_ratio", Unit: "ratio"}},
		once:    true,
		run: func(pc *probeCtx) ([]float64, error) {
			t, err := chirper(pc)
			if err != nil {
				return nil, err
			}
			defer t.Close()
			res, err := openLoop(pc, t, 2)
			if err != nil {
				return nil, err
			}
			return []float64{
				float64(res.Hist.Quantile(0.5)) / 1e3, float64(res.Hist.Quantile(0.99)) / 1e3,
				float64(res.Offered-res.Completed) / float64(max(1, res.Offered)),
			}, nil
		},
	},
	{metrics: defs("ns", "hdr.record_ns"), run: func(pc *probeCtx) ([]float64, error) {
		n := pc.n(2_000_000)
		h := hdr.New()
		x := uint64(pc.seed) | 1
		ns := timed(func() {
			for i := 0; i < n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				h.Record(int64(x >> 40))
			}
		})
		if h.Count() != int64(n) {
			return nil, fmt.Errorf("histogram holds %d of %d values", h.Count(), n)
		}
		return []float64{ns / float64(n)}, nil
	}},
	{metrics: defs("us", "loadgen.late_p99_us"), once: true, run: func(pc *probeCtx) ([]float64, error) {
		res, err := openLoop(pc, nullTarget{}, 1)
		if err != nil {
			return nil, err
		}
		return []float64{float64(res.Hist.Quantile(0.99)) / 1e3}, nil
	}},
}

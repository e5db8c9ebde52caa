# Build/verify entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite, and the race detector over the
# packages with lock-free and sharded concurrent code (metrics, forkjoin,
# stm), which ordinary `go test` does not exercise under -race.

GO ?= go

RACE_PKGS = ./internal/metrics ./internal/forkjoin ./internal/stm ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/lin ./internal/streams ./internal/actors ./internal/rx ./internal/mpsc ./internal/rvm ./internal/rvm/opt ./internal/hdr ./internal/loadgen

# The fault-tolerance and engine-concurrency tests: harness panic/timeout
# isolation, netstack drain/close/breaker/shedding, client retry and close
# races, the data-parallel engine's executor/shuffle/fused-action
# interleavings, the actor runtime's shutdown/quiescence/fairness/steal
# races, and the supervision fault domains (restart/escalation/dead
# letters, plus the MPSC queue and rx scheduler close races). `make
# stress` shakes them under the race detector repeatedly to catch rare
# interleavings; the rvm tier-up differential fuzz (tier-0 vs quickened
# execution over the random bytecode corpus) rides along so the
# interpreter tiers stay bit-identical under the race detector too, as
# does the STM adversarial suite (lost-wakeup, opacity, timestamp
# extension differential vs a global-lock reference) and the RDD lineage
# recovery suite (recompute vs concurrent actions on a shared cache,
# retry-budget exhaustion, shuffle epoch retries, checkpoint truncation).
# minilang's FuzzCompile seed corpus (compile, then baseline vs quickened
# execution) rides along too.
STRESS_RUN = 'Close|Drain|Timeout|Race|Racing|Panic|Retry|Fault|Discard|Exchange|Executor|Fused|Nested|Quiesce|Flood|Steal|Registry|Scheduler|Queue|Mailbox|Ask|Restart|Resume|Escalation|DeadLetter|Breaker|Shed|Tier|Quicken|Admission|Backoff|Concurrent|Outstanding|Opacity|Wakeup|Extension|Differential|Cholesky|Recompute|Epoch|Checkpoint|Budget|Lineage|FuzzCompile'
STRESS_PKGS = ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/forkjoin ./internal/actors ./internal/rx ./internal/mpsc ./internal/streams ./internal/rvm ./internal/rvm/opt ./internal/hdr ./internal/loadgen ./internal/stm ./internal/minilang

.PHONY: check vet build test test-rbench race stress chaos bench bench-all bench-ci bench-contention analyze rbench loc

check: vet build test test-rbench race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark is a module of its own (benchmarks/go.mod), so ./... at
# the root does not reach its tests.
test-rbench:
	$(GO) test -C benchmarks ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

stress:
	$(GO) test -race -count=5 -run $(STRESS_RUN) $(STRESS_PKGS)

# Chaos sweep: run the renaissance suite with seeded fault injection at
# every registered injection point and assert clean degradation — every
# benchmark must end in a terminal status (ok/error/timeout/panic) and the
# harness must exit 0 (all clean) or 1 (some benchmarks degraded), never
# crash. Seeds are pinned so failures reproduce; set CHAOS_RACE=-race to
# run under the race detector (CI does).
CHAOS_SEEDS ?= 1 7
CHAOS_RATE  ?= 0.02
CHAOS_RACE  ?=
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos sweep: seed=$$seed rate=$(CHAOS_RATE) =="; \
		$(GO) run $(CHAOS_RACE) ./cmd/renaissance run -suite renaissance \
			-size 0.1 -warmup 1 -measured 1 -timeout 30s -retries 1 \
			-chaos.seed $$seed -chaos.rate $(CHAOS_RATE) -chaos.stats; \
		code=$$?; \
		if [ $$code -gt 1 ]; then \
			echo "chaos sweep crashed (exit $$code) at seed $$seed"; exit $$code; \
		fi; \
	done; echo "chaos sweeps completed with terminal statuses"

# Contention benchmarks: flat vs sharded recorder, mutex vs Chase–Lev
# deque, at 1/2/4/8 virtual CPUs (see EXPERIMENTS.md "Profiler
# perturbation").
bench-contention:
	$(GO) test -run '^$$' -bench 'Recorder|Snapshot' -cpu 1,2,4,8 ./internal/metrics
	$(GO) test -run '^$$' -bench 'Deque' -cpu 1,2,4,8 ./internal/forkjoin

# Data-parallel engine benchmarks: fused pipeline vs per-stage
# materialization, lock-free shuffle exchange vs the mutex baseline, and
# executor fan-out vs goroutine-per-task, at 1/2/4/8 virtual CPUs (see
# EXPERIMENTS.md "Data-parallel engine"). Output is teed to BENCH_*.txt
# so runs can be diffed with benchstat-style tooling.
bench:
	$(GO) test -run '^$$' -bench 'FusedVsMaterialized|LockedVsExchange' -benchmem -cpu 1,2,4,8 ./internal/rdd | tee BENCH_rdd.txt
	$(GO) test -run '^$$' -bench 'FanOut' -benchmem -cpu 1,2,4,8 ./internal/forkjoin | tee BENCH_forkjoin.txt
	$(GO) test -run '^$$' -bench 'ActorPingPong|ActorFanIn|ActorSpawnStorm|ActorAsk' -benchmem -cpu 1,2,4,8 ./internal/actors | tee BENCH_actors.txt
	$(GO) test -run '^$$' -bench 'Dispatch|InlineCache|ArrayLoop|ArrayAlloc' -benchmem -cpu 1 ./internal/rvm | tee BENCH_rvm.txt
	$(GO) test -run '^$$' -bench 'CommitNoWaiters|RetryWakeup|ReadOnlyTraversal|PhilosophersE2E|STMBench7E2E' -benchmem -cpu 1,2,4,8 ./internal/stm | tee BENCH_stm.txt
	$(GO) test -run '^$$' -bench '^BenchmarkML' -benchmem -cpu 1,2,4,8 ./internal/rdd | tee BENCH_ml.txt

# One-iteration smoke pass over the engine benchmarks for CI: proves they
# still compile and run without paying full measurement time.
bench-ci:
	$(GO) test -run '^$$' -bench 'FusedVsMaterialized|LockedVsExchange|FanOut' -benchtime 1x -benchmem ./internal/rdd ./internal/forkjoin
	$(GO) test -run '^$$' -bench 'ActorPingPong|ActorFanIn|ActorSpawnStorm|ActorAsk' -benchtime 1x -benchmem ./internal/actors
	$(GO) test -run '^$$' -bench 'Dispatch|InlineCache|ArrayLoop|ArrayAlloc' -benchtime 1x -benchmem -cpu 1 ./internal/rvm
	$(GO) test -run '^$$' -bench 'CommitNoWaiters|RetryWakeup|ReadOnlyTraversal|PhilosophersE2E|STMBench7E2E' -benchtime 1x -benchmem ./internal/stm
	$(GO) test -run '^$$' -bench '^BenchmarkML' -benchtime 1x -benchmem ./internal/rdd
	$(GO) run ./cmd/renaissance run -bench finagle-chirper -openloop.rate 200 -openloop.duration 500ms

# Every benchmark in the repo (paper figures included); slow.
bench-all:
	$(GO) test -run '^$$' -bench . ./...

# The repository's benchmark (BENCHMARK.json, benchmarks/README.md): one
# workload, untraced for the end-to-end metrics, e.g. `make rbench
# W=compiler`; add TRACE=1 for the per-layer metrics.
W     ?= compiler
TRACE ?= 0
rbench:
	bash benchmarks/run.sh --workload $(W) --seed 1 --seconds 10 --trace $(TRACE)

analyze:
	$(GO) run ./cmd/analyze all

# Non-test Go lines at the root module: the number ROADMAP item 3's
# deletion target is read from, the same way on every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l

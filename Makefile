# Build/verify entry points. `make check` is the gate every change must
# pass: gofmt, vet, build, the full test suite, the race detector over the
# packages with lock-free and sharded concurrent code (metrics, forkjoin,
# stm), which ordinary `go test` does not exercise under -race, and the
# freshness of the CK tables committed in analysis_output.txt.
# `make rbench` (benchmarks/run.sh) is the only target that produces a
# performance number; there is no `go test -bench` target.

GO ?= go

RACE_PKGS = ./internal/metrics ./internal/forkjoin ./internal/stm ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/lin ./internal/streams ./internal/actors ./internal/rx ./internal/mpsc ./internal/rvm ./internal/rvm/opt ./internal/minilang ./internal/hdr ./internal/loadgen ./internal/graphdb ./internal/memdb

# The fault-tolerance and engine-concurrency tests: harness panic/timeout
# isolation, netstack drain/close/admission control and client close
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
# retry-budget exhaustion, shuffle epoch retries).
# minilang's FuzzCompile seed corpus (compile, then baseline vs quickened
# execution) rides along too, as does the rvm/ir FuzzVerify seed corpus
# (bytecode the verifier accepts runs identically on tier-0, tier-1 and
# the IR executor; bytecode it refuses is refused by all three), and so
# do graphdb's concurrent writer/reader tests and its differential suite
# against the map-and-sort reference (CreateNode takes no store lock;
# queries sort nothing under it). The metrics recorder's concurrent tests
# ride along too, among them owner-only batches flushed from many
# goroutines summing exactly.
STRESS_RUN = 'Close|Drain|Timeout|Race|Racing|Panic|Retry|Fault|Discard|Exchange|Executor|Fused|Nested|Quiesce|Flood|Steal|Scheduler|Queue|Mailbox|Ask|Restart|Resume|Escalation|DeadLetter|Tier|Quicken|Admission|Backoff|Concurrent|Outstanding|Opacity|Wakeup|Extension|Differential|Cholesky|Recompute|Epoch|Budget|FuzzCompile|FuzzVerify'
STRESS_PKGS = ./internal/metrics ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/forkjoin ./internal/actors ./internal/rx ./internal/mpsc ./internal/streams ./internal/rvm ./internal/rvm/opt ./internal/hdr ./internal/loadgen ./internal/stm ./internal/minilang ./internal/graphdb ./internal/rvm/ir

.PHONY: check fmt vet build test test-rbench race stress stress-fragments ck-fresh chaos smoke analyze rbench loc

check: fmt vet build test test-rbench race stress-fragments ck-fresh

# gofmt must list no file of the root module or of benchmarks/ (it only
# reads them). The build directory .bench_build/ is left out.
fmt:
	@out=$$(find . -name '*.go' ! -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

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

# Every STRESS_RUN fragment must match at least one test of STRESS_PKGS, so
# a renamed or deleted test cannot leave a fragment selecting nothing.
stress-fragments:
	@names=$$($(GO) test -list . $(STRESS_PKGS) | grep -E '^(Test|Fuzz)'); \
	for frag in $$(echo $(STRESS_RUN) | tr '|' ' '); do \
		echo "$$names" | grep -q "$$frag" || { echo "STRESS_RUN fragment '$$frag' matches no test in STRESS_PKGS"; exit 1; }; \
	done

# Chaos sweep: run the renaissance suite with seeded fault injection at
# every registered injection point and assert clean degradation — every
# benchmark must end in a terminal status (ok/error/timeout/panic) and the
# harness must exit 0 (all clean) or 1 (some benchmarks degraded), never
# crash. The harness's own point, core.iteration, must show trials in the
# -chaos.stats dump, so the sweep reaches the runner's retries and panic
# isolation. Seeds are pinned so failures reproduce; set CHAOS_RACE=-race
# to run under the race detector (CI does).
CHAOS_SEEDS ?= 1 7
CHAOS_RATE  ?= 0.02
CHAOS_RACE  ?=
chaos:
	@stats=$$(mktemp); trap 'rm -f $$stats' EXIT; \
	for seed in $(CHAOS_SEEDS); do \
		echo "== chaos sweep: seed=$$seed rate=$(CHAOS_RATE) =="; \
		$(GO) run $(CHAOS_RACE) ./cmd/renaissance run -suite renaissance \
			-size 0.1 -warmup 1 -measured 1 -timeout 30s -retries 1 \
			-chaos.seed $$seed -chaos.rate $(CHAOS_RATE) -chaos.stats 2>$$stats; \
		code=$$?; cat $$stats >&2; \
		if [ $$code -gt 1 ]; then \
			echo "chaos sweep crashed (exit $$code) at seed $$seed"; exit $$code; \
		fi; \
		awk '$$1 == "core.iteration" && $$2 > 0 { hit = 1 } END { exit !hit }' $$stats || { \
			echo "chaos sweep never reached core.iteration at seed $$seed"; exit 1; }; \
	done; echo "chaos sweeps completed with terminal statuses"

# The repository's benchmark (BENCHMARK.json, benchmarks/README.md): one
# workload, untraced for the end-to-end metrics, e.g. `make rbench
# W=compiler`; add TRACE=1 for the per-layer metrics.
W     ?= compiler
TRACE ?= 0
rbench:
	bash benchmarks/run.sh --workload $(W) --seed 1 --seconds 10 --trace $(TRACE)

# Exit-code smoke for CI, not a measurement: the open-loop load generator
# against finagle-chirper (nothing else drives -openloop.* from the CLI),
# and four 1-second rbench workloads, each of which exits non-zero when a
# sample fails ("correct":false): compiler; taskparallel, whose run ends in
# the Validate of fj-kmeans, future-genetic, scrabble and
# streams-mnemonics; dataparallel, whose run ends in the Validate of the
# seven Spark workloads; and messaging, whose run ends in the Validate of
# akka-uct, reactors, rx-scrabble, finagle-http and finagle-chirper.
smoke:
	$(GO) run ./cmd/renaissance run -bench finagle-chirper -openloop.rate 200 -openloop.duration 500ms
	bash benchmarks/run.sh --workload compiler --seed 1 --seconds 1
	bash benchmarks/run.sh --workload taskparallel --seed 1 --seconds 1
	bash benchmarks/run.sh --workload dataparallel --seed 1 --seconds 1
	bash benchmarks/run.sh --workload messaging --seed 1 --seconds 1

analyze:
	$(GO) run ./cmd/analyze all

# The deterministic tail of analysis_output.txt — Tables 4, 5 and 8-11,
# what `analyze ck` and `analyze classes` print — must match what the two
# steps print now (both take under a second).
ck-fresh:
	@want=$$(mktemp); trap 'rm -f $$want' EXIT; \
	{ $(GO) run ./cmd/analyze ck && $(GO) run ./cmd/analyze classes; } > $$want || exit 1; \
	tail -n $$(wc -l < $$want) analysis_output.txt | diff -u - $$want || { \
		echo "analysis_output.txt: its last lines differ from analyze ck + analyze classes; regenerate them"; exit 1; }

# Go lines at the root module, non-test then test: the two numbers
# ROADMAP item 3's deletion targets are read from, the same way on every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l
	@find . -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l

# Build/verify entry points. `make check` is the gate every change must
# pass: gofmt, vet, build, the full test suite, the race detector over the
# packages with lock-free, sharded or otherwise concurrent code (the 20 of
# RACE_PKGS below), which ordinary `go test` does not exercise under
# -race, the freshness of the CK tables committed in analysis_output.txt,
# of its Table 7 work counts, and of its simulated-cycle outputs.
# `make rbench` (benchmarks/run.sh) is the only target that produces a
# performance number; there is no `go test -bench` target.

GO ?= go

RACE_PKGS = ./internal/metrics ./internal/forkjoin ./internal/stm ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/lin ./internal/streams ./internal/actors ./internal/rx ./internal/mpsc ./internal/rvm ./internal/rvm/opt ./internal/minilang ./internal/hdr ./internal/loadgen ./internal/graphdb ./internal/memdb ./internal/taskbench

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
# goroutines summing exactly. lin's FuzzNormalEq seed corpus rides along
# with the ALS differential tests: the fused normal-equation kernel is
# bit-identical to the per-rating Syr+Axpy pair, and ALSTrain's factors
# to a reference that still uses it, at GOMAXPROCS 1 and 2. rdd's
# FuzzDotCounts seed corpus rides along with the naive-Bayes differential:
# the byte-row dot Predict scores with is lin.Dot over the converted row,
# bit for bit. So does its FuzzTreeSplit seed corpus: the decision tree's
# one row-major pass per node picks the split the per-feature search
# picked, bit for bit (constant features, ties between features, more
# than 8 classes), and the Retry fragment picks the fitted tree being
# identical at GOMAXPROCS 1 and 2 and under rdd.task retries. memdb's
# concurrent writer and mixed-workload tests ride
# along for the hash shards' swap-on-delete slots, and the Queue fragment
# also picks mpsc's FuzzQueueOps seed corpus (pushes held between swap and
# link, against a slice model). The TaskGraph fragment runs the
# cross-substrate task-graph oracle (internal/taskbench): a Task Bench
# stencil and binary tree through fork/join, the parallel-for, futures and
# actors, every node's checksum against a sequential walk at GOMAXPROCS 1
# and 2.
STRESS_RUN = 'Close|Drain|Timeout|Race|Racing|Panic|Retry|Fault|Discard|Exchange|Executor|Fused|Nested|Quiesce|Flood|Steal|Scheduler|Queue|Mailbox|Ask|Restart|Resume|Escalation|DeadLetter|Tier|Quicken|Admission|Backoff|Concurrent|Outstanding|Opacity|Wakeup|Extension|Differential|Cholesky|Recompute|Epoch|Budget|FuzzCompile|FuzzVerify|FuzzNormalEq|FuzzDotCounts|FuzzTreeSplit|TaskGraph'
STRESS_PKGS = ./internal/metrics ./internal/core ./internal/netstack ./internal/futures ./internal/rdd ./internal/forkjoin ./internal/actors ./internal/rx ./internal/mpsc ./internal/streams ./internal/rvm ./internal/rvm/opt ./internal/hdr ./internal/loadgen ./internal/stm ./internal/minilang ./internal/graphdb ./internal/rvm/ir ./internal/lin ./internal/memdb ./internal/taskbench

.PHONY: check fmt vet build test test-rbench race stress stress-fragments ck-fresh work-fresh sim-fresh chaos smoke fuzz analyze rbench loc

check: fmt vet build test test-rbench race stress-fragments ck-fresh work-fresh sim-fresh

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

# Fuzzing beyond the seeds: each fuzz target with a committed corpus
# (testdata/fuzz/<target>) runs for 30 s on two workers — the mpsc
# queue against a slice model with pushes held mid-link (the queue under
# every actor mailbox and every fork–join inject queue), the rvm/ir
# verifier against tier-0, tier-1 and the IR executor, and the
# dataparallel kernels against their oracles, bit for bit: the decision
# tree's row-major split against the per-feature search, PageRank's one
# pass a step over shares against the sequential rank/outdeg reference,
# naive-Bayes' byte-row dot against lin.Dot, and ALS's fused normal
# equations against the per-rating Syr+Axpy pair; the minilang compiler
# against the baseline and quickened interpreters (result, error and
# counters), and the netstack frame codec's decode/re-encode round trip.
# A failing input lands in that corpus directory; commit it with the fix.
FUZZ_TARGETS = ./internal/mpsc:FuzzQueueOps ./internal/rvm/ir:FuzzVerify ./internal/rdd:FuzzTreeSplit ./internal/rdd:FuzzPageRank ./internal/rdd:FuzzDotCounts ./internal/lin:FuzzNormalEq ./internal/minilang:FuzzCompile ./internal/netstack:FuzzFrameCodec
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzz $$name ($$pkg, 30s)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 30s -parallel 2 $$pkg || exit 1; \
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
# against finagle-chirper (nothing else drives -openloop.* from the CLI);
# renaissance run's table at 20 measured iterations, whose 99% CI column
# must read [lo, hi] around the median (below 8 iterations it reads n/a,
# and make chaos measures 1); and four 1-second rbench workloads, each of
# which exits non-zero when a sample fails ("correct":false): compiler;
# taskparallel, whose run ends in the Validate of fj-kmeans,
# future-genetic, scrabble and streams-mnemonics; dataparallel, whose run
# ends in the Validate of the seven Spark workloads; and messaging, whose
# run ends in the Validate of akka-uct, reactors, rx-scrabble,
# finagle-http and finagle-chirper.
smoke:
	$(GO) run ./cmd/renaissance run -bench finagle-chirper -openloop.rate 200 -openloop.duration 500ms
	$(GO) run ./cmd/renaissance run -bench scrabble -size 0.1 -warmup 1 -measured 20 | awk '{ print } \
		$$2 == "scrabble" { lo = substr($$5, 2) + 0; ok = $$3 == "ok" && $$5 ~ /^\[[0-9.]+,$$/ && $$6 ~ /^[0-9.]+\]$$/ && lo <= $$4 && $$4 <= $$6 + 0 } \
		END { if (!ok) print "renaissance run: the 99% CI column is not a [lo, hi] around the median"; exit !ok }'
	bash benchmarks/run.sh --workload compiler --seed 1 --seconds 1
	bash benchmarks/run.sh --workload taskparallel --seed 1 --seconds 1
	bash benchmarks/run.sh --workload dataparallel --seed 1 --seconds 1
	bash benchmarks/run.sh --workload messaging --seed 1 --seconds 1

# GOMAXPROCS is pinned: the Spark workloads' object counts follow the
# executor count (work-fresh compares them).
analyze:
	GOMAXPROCS=2 $(GO) run ./cmd/analyze all

# The deterministic tail of analysis_output.txt — Tables 4, 5 and 8-11,
# what `analyze ck` and `analyze classes` print — must match what the two
# steps print now (both take under a second).
ck-fresh:
	@want=$$(mktemp); trap 'rm -f $$want' EXIT; \
	{ $(GO) run ./cmd/analyze ck && $(GO) run ./cmd/analyze classes; } > $$want || exit 1; \
	tail -n $$(wc -l < $$want) analysis_output.txt | diff -u - $$want || { \
		echo "analysis_output.txt: its last lines differ from analyze ck + analyze classes; regenerate them"; exit 1; }

# Table 7's work counts — the synch, object, array, method and idynamic
# columns, picked by header name for every row — must match what `analyze
# table7` prints now at the same GOMAXPROCS as `make analyze` (under a
# second). They count events, not time, so a change that moves one has
# changed what a workload does; the other columns depend on timing.
WORK_COLS = synch object array method idynamic
work-fresh:
	@want=$$(mktemp); got=$$(mktemp); trap 'rm -f $$want $$got' EXIT; \
	pick='NR == 2 { n = split(cols, c, " "); for (i = 1; i <= NF; i++) idx[$$i] = i; \
		for (j = 1; j <= n; j++) if (!(c[j] in idx)) { print "Table 7 has no column " c[j] > "/dev/stderr"; exit 1 }; next } \
		NR > 3 && NF { line = $$1 " " $$2; for (j = 1; j <= n; j++) line = line " " $$(idx[c[j]]); print line }'; \
	awk '/^Table 7:/ { f = 1 } f && /^$$/ { exit } f' analysis_output.txt | awk -v cols="$(WORK_COLS)" "$$pick" > $$want || exit 1; \
	GOMAXPROCS=2 $(GO) run ./cmd/analyze table7 > $$got || exit 1; \
	awk -v cols="$(WORK_COLS)" "$$pick" $$got | diff -u $$want - || { \
		echo "analysis_output.txt: Table 7's work counts differ from analyze table7; regenerate it with make analyze"; exit 1; }

# The simulated-cycle blocks of analysis_output.txt — Tables 12-15 and
# Figures 5-7, the guard and hottest-method drill-downs and the cache
# table, what the SIM_STEPS of `analyze` print — must match what those
# steps print now (about 17 s on 2 vCPUs). Each block is picked by the
# first line its step prints. Cycles are a function of the kernel and the
# pipeline alone, so any difference is a changed compiler or kernel.
# Table 16 times the compiler and is left out.
SIM_STEPS = impact compilers codesize guards mhs-hot cache
sim-fresh:
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir/analyze ./cmd/analyze || exit 1; \
	for step in $(SIM_STEPS); do \
		$$dir/analyze $$step > $$dir/got || exit 1; \
		awk -v t="$$(head -n 1 $$dir/got)" -v n=$$(wc -l < $$dir/got) '$$0 == t { f = 1 } f && n-- > 0' analysis_output.txt | \
			diff -u - $$dir/got || { \
			echo "analysis_output.txt: the block analyze $$step prints differs; regenerate it"; exit 1; }; \
	done

# Go lines at the root module, non-test then test: the two numbers
# ROADMAP item 3's deletion targets are read from, the same way on every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l
	@find . -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l

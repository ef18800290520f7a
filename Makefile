# BriskStream build/test entry points. `make check` is what CI runs;
# the missing-go.mod class of breakage fails `make build` immediately.

GO ?= go

.PHONY: all build test test-repeat test-briskcheck race bench bench-planner bench-window bench-symbols bench-emit bench-timers bench-state vet fmt-check fuzz-smoke check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-repeat runs the packages that keep process-global state (the
# symbol table, the engine's tasks) twice in one
# process, so a test that only passes on a fresh process — say, one
# that interns a fixed name and expects the table to grow — fails here.
# It then runs the workers' park and wake tests 50 times under the race
# detector: a lost wake-up is a hang, and the 120 s timeout turns it
# into a failure well before the CI runner's own limit.
test-repeat:
	$(GO) test -count=2 -short ./internal/tuple/ ./internal/queue/ ./internal/engine/
	$(GO) test -race -count=50 -timeout 120s -run 'Wake|Park' ./internal/engine/

# test-briskcheck runs the engine, the apps and the Linear Road example
# under the race detector with the briskcheck build tag: the last
# release of a batch overwrites its slots and arena with a sentinel, so
# a consumer that still reads a batch after dropping its hold — a shared
# batch another consumer already recycled, which the race detector
# cannot see across the ring's happens-before edge — reads garbage and
# the exact-output tests fail. The same tag makes every engine Run end
# by checking that its workers left no wake token and no parked count.
test-briskcheck:
	$(GO) test -race -tags briskcheck ./internal/engine ./internal/apps ./examples/linearroad

# race focuses on the concurrent hot path (queue + engine), the symbol
# table (lock-free readers beside in-place inserts), the
# window/state/checkpoint subsystems, the windowed apps (including
# the end-to-end kill/restore/replay recovery and rescale tests) and
# the Storm-like baseline, which drives every batch-aware operator
# through its one-row face;
# `make race-all` covers every package and takes correspondingly
# longer. Both run with BRISK_VALIDATE_EVERY=1: every batch is checked
# against its route's declared schema (engine Config.ValidateEvery), so
# an operator whose layout drifts after its first emit fails the race
# suite instead of corrupting state silently.
race:
	BRISK_VALIDATE_EVERY=1 $(GO) test -race ./internal/queue/ ./internal/engine/ ./internal/tuple/ ./internal/window/ ./internal/state/ ./internal/checkpoint/ ./internal/obs/ ./internal/apps/ ./internal/baseline/ .

.PHONY: race-all
race-all:
	BRISK_VALIDATE_EVERY=1 $(GO) test -race ./...

# bench runs the queue/emit microbenchmarks: per-edge SPSC rings
# fanned into an inbox and the uncontended ring, both through the
# nonblocking TryPut/TryGet the engine calls, and the emit path.
bench:
	$(GO) test -bench 'PutGet|EngineEmit' -benchtime 1s -run xxx ./internal/queue/ ./internal/engine/

# bench-planner runs the branch-and-bound ablation benchmarks
# (BenchmarkAblationBnB{Dedup,NoDedup,WarmStart}: one 3000-node
# placement search each) once. check and CI gate on them completing —
# a search that errors or stops finding a feasible plan fails — not on
# their timings; for numbers, raise -benchtime and add -benchmem.
bench-planner:
	$(GO) test -run '^$$' -bench AblationBnB -benchtime 1x .

# bench-window runs BenchmarkWindowWideSymKeys once: 100 000 symbol keys
# accumulated into one tumbling window, then fired (add_ns/key,
# fire_ns/key). check and CI gate on it completing with every pane
# emitted exactly once, not on its timings; raise -benchtime for numbers.
bench-window:
	$(GO) test -run '^$$' -bench WindowWideSymKeys -benchtime 1x ./internal/window/

# bench-symbols runs the symbol-table benchmarks once each:
# BenchmarkInternSym{Cold,Hot,Wide} (a fresh name in a 10 000-name
# table; 32 known words; random hits in a 400 000-name table) and
# BenchmarkSymCacheHit (32 words through a warm SymCache). check and CI
# gate on them completing, not on their timings; every cold iteration
# grows the table for good, so for numbers raise -benchtime to a fixed
# count (e.g. 20000x), not a duration.
bench-symbols:
	$(GO) test -run '^$$' -bench 'InternSym|SymCacheHit' -benchtime 1x ./internal/tuple/

# bench-emit runs BenchmarkEngineEmit once per row: one operator task
# emitting through Send, through Out (put rows) and by forwarding whole
# input batches (handed over into one sink, copied into several), into
# one sink over shuffle and fields routes and into four or eight
# replicas. check and CI gate on every row reaching the sinks, not on
# the timings; for ns/row, raise -benchtime (e.g. 1s).
bench-emit:
	$(GO) test -run '^$$' -bench EngineEmit -benchtime 1x ./internal/engine/

# bench-timers runs BenchmarkTimers once per row: the timer service's
# public API (RegisterEvent + AdvanceWatermark) with one event timer
# pending, and with 1024 pending at spread timestamps. check and CI
# gate on every registered timer firing exactly once, in timestamp
# order, not on the timings; for ns/op, raise -benchtime (e.g. 1s).
bench-timers:
	$(GO) test -run '^$$' -bench '^BenchmarkTimers$$' -benchtime 1x ./internal/engine/

# bench-state runs BenchmarkStateMap once per row: state.Map upserts
# over 10 000 symbol keys, 50 000 dense and 100 000 spread int64 keys.
# check and CI gate on every key's count being exact after the pass,
# not on the timings; for ns/upsert, raise -benchtime (e.g. 20x).
bench-state:
	$(GO) test -run '^$$' -bench '^BenchmarkStateMap$$' -benchtime 1x ./internal/state/

# bench-json runs the benchmark apps (the paper's four plus the
# windowed TW) on the real engine across the GOMAXPROCS x replication
# x pinned/unpinned matrix and writes machine-readable rows
# (throughput in and out, latency p50/p99, allocs/tuple, and — on the
# single-core rows — the checkpoint-on vs. checkpoint-off ingest
# overhead at 1s intervals) to $(BENCH_JSON), tracking the data-path
# perf trajectory — including the multicore replication scaling the
# paper is about — across PRs. The report also carries an "adaptive"
# comparison: static stale plan vs. the autoscaler draining the same
# skew-shifting stream. CI runs it as a non-gating step. The numbers of
# record come from `bash benchmark/run.sh`, not from here.
BENCH_JSON ?= BENCH_PR10.json
# 4s per cell: 2s runs swing ±10% on a busy host.
BENCH_JSON_DUR ?= 4s
.PHONY: bench-json
bench-json:
	$(GO) run ./cmd/briskbench -bench-json $(BENCH_JSON_DUR) -pin > $(BENCH_JSON).tmp
	mv $(BENCH_JSON).tmp $(BENCH_JSON)

# bench-multicore runs the parallel-sensitive microbenchmarks (SPSC
# ring and inbox through TryPut/TryGet, reverse free ring, engine emit)
# at GOMAXPROCS=4, the setting the multicore bench matrix rows use.
.PHONY: bench-multicore
bench-multicore:
	GOMAXPROCS=4 $(GO) test -bench 'PutGet|FreeRing|EngineEmit' -benchtime 1s -run xxx ./internal/queue/ ./internal/engine/

# race-multicore re-runs the concurrent hot path with real parallelism
# and pinned executors (BRISK_PIN; a no-op where affinity is
# unsupported), the configuration CI's multicore step gates on. -short
# drops the timing-comparative tests (and the duration-windowed app
# suites are excluded entirely): with GOMAXPROCS above the core count
# plus race-detector overhead, wall-clock comparisons flake while the
# interleavings — what this target exists for — only get richer.
.PHONY: race-multicore
race-multicore:
	GOMAXPROCS=4 BRISK_VALIDATE_EVERY=1 BRISK_PIN=1 $(GO) test -race -short ./internal/queue/ ./internal/engine/

# obs-check is the live-telemetry smoke test CI gates on: it runs the
# windowed demo app with /metrics served on a loopback port, scrapes
# /healthz, /metrics and /events mid-run, validates every exposition
# line with the same parser the unit tests use, and requires a non-zero
# brisk_task_service_ns_total on every operator task; the second
# pass does the same for the tracing surface, validating the /traces
# invariants (monotonic hop times, topology-only spans, attribution
# bounded by elapsed time, breakdown summing to the mean e2e).
.PHONY: obs-check
obs-check:
	$(GO) run ./cmd/briskbench -obs-check
	$(GO) run ./cmd/briskbench -trace-check

vet:
	$(GO) vet ./...

# fmt-check gates on gofmt: an unformatted tree fails check (and CI)
# with the offending files listed, instead of drifting silently.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz-smoke gives each fuzz target a short budget, one after the other
# (go test -fuzz takes one target of one package per invocation). The
# decoders face bytes from outside the process — checkpoint files, and
# the tuple frames the Storm-like baseline serializes on every hop
# (batches cross edges in shared memory and are never encoded) — so a
# bounded run on every change is the floor; the row-copy target sends
# random rows of every field kind through every copy between tuples and
# batches (put, forward, materialize) and back to their encoded bytes;
# the window target lets the
# fuzzer pick window shapes, disorder, keys and batch sizes for the
# batch-size invariance property (one-row batches through Process ≡
# many-row batches through ProcessBatch); the state target runs random
# operation sequences on state.Map against a Go-map reference. A crasher
# lands in the package's testdata/fuzz/ and fails plain `go test` from
# then on.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/tuple/
	$(GO) test -run '^$$' -fuzz '^FuzzRowCopy$$' -fuzztime $(FUZZTIME) ./internal/tuple/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoderKey$$' -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzWindowBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/window/
	$(GO) test -run '^$$' -fuzz '^FuzzStateMap$$' -fuzztime $(FUZZTIME) ./internal/state/

# benchmark/ is its own module (the benchmark of record), so the root
# ./... does not reach its tests; check runs them explicitly, after the
# repeated-run pass (test-repeat) and the released-batch check
# (test-briskcheck), then the planner, window, symbol, emit,
# timer and state benchmarks once (bench-planner, bench-window,
# bench-symbols, bench-emit, bench-timers, bench-state), the
# fuzz smoke, the multicore pinned race pass and the live-telemetry
# gates — the same steps as .github/workflows/ci.yml.
check: vet fmt-check build
	BRISK_VALIDATE_EVERY=1 $(GO) test -race ./...
	$(MAKE) test-repeat
	$(MAKE) test-briskcheck
	$(GO) -C benchmark test ./...
	$(MAKE) bench-planner
	$(MAKE) bench-window
	$(MAKE) bench-symbols
	$(MAKE) bench-emit
	$(MAKE) bench-timers
	$(MAKE) bench-state
	$(MAKE) fuzz-smoke
	$(MAKE) race-multicore
	$(MAKE) obs-check

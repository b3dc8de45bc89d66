GO ?= go

.PHONY: build test race stress bench bench-scan bench-spill bench-plan bench-serve bench-parallel bench-wlm chaos chaos-resize spill workload

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Vet plus race-detector runs over the packages with the most concurrency:
# the distributed cluster, the query engine and its operators, the shared
# block cache, and the telemetry registry — plus the root-level morsel
# worker suites (twin battery, cancel/fault storm, stats parity).
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/cluster ./internal/core ./internal/exec ./internal/storage ./internal/telemetry ./internal/wire
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run TestParallel .

# Scheduling-dependent suites at several core counts: WLM admission, the
# result and block caches (including the mutation-interleaved cache twin),
# the morsel twins, the per-batch allocation bounds of the hash
# operators and string decode, and the wire server's concurrent-client
# and shutdown suites. A test that only passes on one core count
# asserts a scheduling accident, not the behaviour it names.
STRESS = $(GO) test -cpu 1,2,4 -count=3
stress:
	$(STRESS) -run 'TestWLM|TestResultCache|TestBlockCache|TestMutationInterleaved|TestVacuumConcurrent' ./internal/core
	$(STRESS) -run 'TestParallel' .
	$(STRESS) -run 'AllocsPer|TestAggCharges|TestKeyEncoding' ./internal/exec ./internal/compress
	$(STRESS) -run 'TestWire|TestConcurrentClients|TestEndToEnd|TestQueryRoundTrip|TestMultipleSequential|TestServerClose' ./internal/wire

# Short randomized-fault run under the race detector: query battery with
# injected read errors and latency spikes must match a fault-free twin, a
# fully dead cluster must fail cleanly. The seed is pinned for CI and
# echoed by the suite on failure; replay with CHAOS_SEED=<seed> make chaos.
CHAOS_SEED ?= 20260805
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'TestChaosFaultMasking|TestChaosAllReplicas|TestChaosTimeout' -v .

# Elasticity chaos battery under the race detector: the fault battery runs
# DURING a live online resize with concurrent writers (reads bit-identical
# to a fault-free twin across the endpoint swap, zero lost writes), the
# resize is killed at every phase and must roll back with the source
# authoritative, and concurrency-scaling burst routing stays bit-identical
# under injected route faults. Replay with CHAOS_SEED=<seed> make chaos-resize.
chaos-resize:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'TestChaosResize|TestChaosBurst' -v .

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# One-iteration scan-path benchmarks: a CI smoke check that the cache and
# late-materialization paths stay runnable (BENCH_scan.json has real runs).
bench-scan:
	$(GO) test -bench 'ScanHotCold|FilterSelectivity' -benchtime 1x -run '^$$' .

# Memory-governance suite under the race detector: the spill twin battery
# (bit-identical results at unlimited/256KiB/64KiB grants), the mid-spill
# cancellation/timeout leak checks, and the operator-level property tests.
# The seed is pinned for CI; replay with SPILL_SEED=<seed> make spill.
SPILL_SEED ?= 20260805
spill:
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestWorkMem' -v .
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestStvQueryMemory' ./internal/core
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestProp|TestAggAccounting' ./internal/exec

# One-iteration spill benchmarks: CI smoke that the grace-join and
# external-sort disk paths stay runnable (BENCH_spill.json has real runs).
bench-spill:
	$(GO) test -bench 'SpillJoin|ExternalSort' -benchtime 1x -run '^$$' ./internal/exec

# One-iteration plan-quality benchmark: CI smoke that the cost-based join
# reorderer and the syntax-order escape hatch both stay runnable
# (BENCH_plan.json has real runs comparing bytes moved).
bench-plan:
	$(GO) test -bench PlanQuality -benchtime 1x -run '^$$' .

# One-iteration serving-path benchmarks: CI smoke that the 1k-session wire
# throughput benchmark and the parser-pooling benchmark stay runnable
# (BENCH_serve.json has real runs comparing cache-on vs cache-off qps).
bench-serve:
	$(GO) test -bench ServeThroughput -benchtime 1x -run '^$$' ./internal/wire
	$(GO) test -bench ParsePooling -benchtime 1x -run '^$$' ./internal/sql

# One-iteration intra-slice parallelism benchmarks: CI smoke that the
# morsel-driven scan and parallel join build stay runnable at dop 1 and 4
# (BENCH_parallel.json has real runs; speedup needs a multi-core host).
bench-parallel:
	$(GO) test -bench 'ParallelScan|ParallelBuild' -benchtime 1x -run '^$$' .

# Multi-tenant QoS battery under the race detector: the pinned-seed
# workload replay against named queues (fast-lane p99 bounded under ETL
# saturation, zero cross-queue leakage, stv_wlm_* books balanced), the
# single-queue ablation twin, the named-queue WLM unit suite, and the
# synthesizer determinism/shape tests.
workload:
	$(GO) test -race -run 'TestWorkloadQoS' -v .
	$(GO) test -race -run 'TestWLM' ./internal/core
	$(GO) test -race ./internal/workload

# One-iteration WLM replay benchmark: CI smoke that both twin
# configurations (named fast lane vs single shared queue) stay runnable
# (BENCH_wlm.json has real runs comparing short-query p99).
bench-wlm:
	$(GO) test -bench WorkloadReplay -benchtime 1x -run '^$$' .

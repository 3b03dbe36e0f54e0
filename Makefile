GO ?= go

.PHONY: all build vet test race race-fault race-shard check bench-build bench-cxlperf-build bench-compare bench-baseline bench-compare-smoke report-smoke crash-matrix fuzz-smoke resp-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-fault is the focused race gate over the fault-injection and
# retry/degradation paths (the packages with fault-transition callbacks
# and atomic counters). A strict subset of `race`, kept separate so the
# reliability paths can be iterated on quickly and fail the gate first.
race-fault:
	$(GO) test -race ./internal/fault ./internal/kvstore ./internal/tiering

# race-shard is the focused race gate over the parallel simulation
# kernel: the sharded engine's epoch fan-out and the byte-identical
# determinism contracts in kvstore clusters and the LLM fleet. These
# are the only tests that run simulation goroutines concurrently.
race-shard:
	$(GO) test -race -run 'TestSharded|TestClusterByteIdentical|TestFleetByteIdentical' \
		./internal/sim ./internal/kvstore ./internal/llm

# check is the gate: vet, build, the reliability-path and sharded-kernel
# race subsets (fail fast), the full test suite under the race detector,
# a build-only smoke of the benchmarks (compiles every benchmark without
# running it, so bit-rot in bench code fails the gate cheaply), a vet of
# the bench/cxlperf module (which imports internal packages, so an API
# deletion that breaks it fails here), a smoke of the bench-compare
# tooling (parses the committed baseline without running any benchmark),
# and the report determinism smoke.
check: vet build race-fault race-shard race bench-build bench-cxlperf-build bench-compare-smoke report-smoke crash-matrix fuzz-smoke resp-smoke

# resp-smoke is the end-to-end serving gate: it builds the real cxlserve
# binary, starts it with the RESP front end and durable spill tier on
# ephemeral ports, drives a pipelined command mix over raw TCP asserting
# byte-exact replies and per-command /metrics, then SIGINTs and requires
# a clean graceful drain (spill tier closed exactly once).
resp-smoke:
	$(GO) test -run TestRESPSmoke -v ./cmd/cxlserve

# crash-matrix replays the seeded spill workload, crashing at a bounded
# stride of write/fsync boundaries (SPILL_CRASH_BOUNDARIES caps the
# sweep for the gate; unset it for the exhaustive matrix), plus the
# bit-flip-detection and recovery-determinism checks. Every crash must
# recover with no acknowledged write lost and none half-visible.
crash-matrix:
	SPILL_CRASH_BOUNDARIES=16 $(GO) test -run 'TestCrashMatrix|TestBitFlipQuarantined|TestRecoveryDeterministic' ./internal/spill

# fuzz-smoke runs the fuzzers briefly: the spill record decoder must
# never panic on hostile bytes and every record it accepts must
# re-encode byte-identically; the timeline differential fuzzer drives
# random schedule/cancel/step sequences through the timing wheel and
# the reference heap and fails on any ordering divergence; the RESP
# decoder fuzzer feeds hostile frames through the wire parser and
# requires bounded errors plus an EncodeCommand round-trip on every
# accepted command.
fuzz-smoke:
	$(GO) test -run=NoSuchTest -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/spill
	$(GO) test -run=NoSuchTest -fuzz=FuzzTimelineDifferential -fuzztime=10s ./internal/sim
	$(GO) test -run=NoSuchTest -fuzz=FuzzRESPDecode -fuzztime=10s ./internal/resp

# bench-build compiles test+benchmark code without executing any tests or
# benchmarks (-run with a pattern that matches nothing).
bench-build:
	$(GO) test -run=NoSuchTest -bench=NoSuchBench ./... > /dev/null

# bench-cxlperf-build vets the end-to-end benchmark (bench/cxlperf, its
# own module importing cxlsim/internal/... through a replace directive).
bench-cxlperf-build:
	$(GO) -C bench/cxlperf vet .

# The gate benchmarks: the paper-figure end-to-end runs whose hot loops
# this repo optimizes, the timing-wheel kernel microbenchmarks, and the
# sharded cluster run. Kept narrow so bench-compare stays a few minutes.
GATE_BENCH := BenchmarkFig8CXLOnlyKeyDB|BenchmarkFig10LLMInference|BenchmarkWheelSteadyState64|BenchmarkWheelSteadyState4096|BenchmarkWheelCancelHeavy|BenchmarkShardedYCSB
GATE_BENCH_PKGS := . ./internal/sim

# bench-compare reruns the gate benchmarks (count=5, median) and fails
# when any regresses ns/op more than 10% against the committed baseline,
# or when a baseline benchmark is missing from the run.
bench-compare:
	$(GO) test -run=NoSuchTest -bench='$(GATE_BENCH)' -benchmem -count=5 $(GATE_BENCH_PKGS) > /tmp/bench-compare.txt
	$(GO) run ./cmd/benchdiff -threshold 10 bench/BASELINE.txt /tmp/bench-compare.txt

# bench-baseline refreshes the committed baseline after an intentional
# performance change (commit the result).
bench-baseline:
	$(GO) test -run=NoSuchTest -bench='$(GATE_BENCH)' -benchmem -count=5 $(GATE_BENCH_PKGS) > bench/BASELINE.txt

# bench-compare-smoke exercises the comparison tool against the
# committed baseline without running any benchmark: it proves the
# baseline still parses and the tool builds, cheap enough for `check`.
bench-compare-smoke:
	$(GO) run ./cmd/benchdiff bench/BASELINE.txt bench/BASELINE.txt > /dev/null

# report-smoke builds cxlreport, renders the committed fixture run dumps,
# and fails on any byte difference from the committed golden report —
# the scenario report is deterministic by contract. Regenerate after an
# intentional report change with:
#   $(GO) test ./cmd/cxlreport -run TestGolden -update
report-smoke:
	$(GO) run ./cmd/cxlreport -o /tmp/report-smoke.html \
		cmd/cxlreport/testdata/healthy.json cmd/cxlreport/testdata/degraded.json
	cmp /tmp/report-smoke.html cmd/cxlreport/testdata/golden.html

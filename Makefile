GO ?= go

.PHONY: all build fmt vet test race race-fault race-shard check bench-build bench-cxlperf-build bench-cxlperf-test report-smoke crash-matrix fuzz-smoke resp-smoke

all: build

build:
	$(GO) build ./...

# fmt fails when any Go file in the tree (bench/ included) is not
# gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-fault is the focused race gate over the fault-injection and
# retry/degradation paths (the packages with fault-transition callbacks
# and atomic counters) and the group-commit path (spill's SyncThrough and
# the RESP writer's commit barrier). A strict subset of `race`, kept
# separate so the reliability paths can be iterated on quickly and fail
# the gate first.
race-fault:
	$(GO) test -race ./internal/fault ./internal/kvstore ./internal/tiering ./internal/spill ./internal/resp

# race-shard is the focused race gate over the parallel simulation
# kernel: the sharded engine's epoch fan-out and the byte-identical
# determinism contracts in kvstore clusters and the LLM fleet. These
# are the only tests that run simulation goroutines concurrently.
race-shard:
	$(GO) test -race -run 'TestSharded|TestClusterByteIdentical|TestFleetByteIdentical' \
		./internal/sim ./internal/kvstore ./internal/llm

# check is the gate: gofmt, vet, build, the reliability-path and sharded-kernel
# race subsets (fail fast), the full test suite under the race detector
# (which includes the root TestClaims: every paper number lives in the
# claims table of claims_test.go, with its band, and EXPERIMENTS.md's
# tables must match it; print each claim's headroom with
# `go test . -run TestClaims -v`, regenerate the tables with
# `go test . -run TestClaims -update`),
# a build-only smoke of the benchmarks (compiles every benchmark without
# running it, so bit-rot in bench code fails the gate cheaply), a vet of
# the bench/cxlperf module (which imports internal packages, so an API
# deletion that breaks it fails here) and its own test (table digests
# against its goldens and RESP reply checks), and the report determinism
# smoke. bench/cxlperf is the only performance instrument: the `go test
# -bench` functions are profiling entry points, compiled but not gated.
check: fmt vet build race-fault race-shard race bench-build bench-cxlperf-build bench-cxlperf-test report-smoke crash-matrix fuzz-smoke resp-smoke

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
# concurrent group-commit sweep and the bit-flip-detection and
# recovery-determinism checks. Every crash must recover with no
# acknowledged write lost and none half-visible.
crash-matrix:
	SPILL_CRASH_BOUNDARIES=16 $(GO) test -run 'TestCrashMatrix|TestGroupCommitCrashMatrix|TestBitFlipQuarantined|TestRecoveryDeterministic' ./internal/spill

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

# bench-cxlperf-test runs the end-to-end benchmark's own test (about
# 20 s): tiny-mode table digests against bench/cxlperf/testdata and
# every RESP reply of a real cxlserve, so kvstore and RESP changes that
# alter simulated output or the wire fail here.
bench-cxlperf-test:
	$(GO) -C bench/cxlperf test .

# report-smoke builds cxlreport, renders the committed fixture run dumps,
# and fails on any byte difference from the committed golden report —
# the scenario report is deterministic by contract. Regenerate after an
# intentional report change with:
#   $(GO) test ./cmd/cxlreport -run TestGolden -update
report-smoke:
	$(GO) run ./cmd/cxlreport -o /tmp/report-smoke.html \
		cmd/cxlreport/testdata/healthy.json cmd/cxlreport/testdata/degraded.json
	cmp /tmp/report-smoke.html cmd/cxlreport/testdata/golden.html

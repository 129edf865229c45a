# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test test-short vet lint race ci bench bench-svm bench-all bench-smoke bench-check bench-compose compose-smoke chaos-smoke server-chaos-smoke errmodel-smoke fuzz-smoke fuzz-nightly experiments experiments-paper examples clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Style + correctness gate: gofmt (fails listing unformatted files),
# go vet, and staticcheck when installed. staticcheck is optional
# locally (no network install here); CI installs it explicitly, so the
# gate is always enforced where it matters.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector run with shuffled test order; the campaign engine and
# the SVM training pipeline are concurrent (worker pools, kernel cache,
# journal writes, progress callbacks, cancellation), so this is the
# test mode that matters for them, and shuffling catches accidental
# inter-test ordering dependencies.
race:
	$(GO) test -race -shuffle=on -timeout=30m ./...

# The pre-push check: lint, race+shuffle tests, then every smoke suite
# in the same order as the CI workflow's matrix (see
# .github/workflows/ci.yml) — a green `make ci` is a green CI run.
ci: lint build race bench-check chaos-smoke server-chaos-smoke compose-smoke errmodel-smoke fuzz-smoke

# Interpreter + campaign throughput benchmarks (the perf trajectory of
# the execution engine), recorded machine-readably in BENCH_interp.json.
# BenchmarkDeadlockDetection records structural deadlock-detection
# latency — the metric that replaced the former 10 s wall-clock wait.
# BenchmarkShardedCampaign tracks the sharded engine's overhead floor
# (1 shard) and its scaling configuration (one shard per core).
# BenchmarkCampaignSetup records Prepare cold vs warm: the warm number
# is the golden-run cache's enforced win (breaking the cache turns a
# sub-millisecond hit into a full golden run, which benchdiff rejects).
BENCH_INTERP = BenchmarkInterpreter|BenchmarkInterpreterInstrumented|BenchmarkCampaignThroughput|BenchmarkCampaignSetup|BenchmarkShardedCampaign|BenchmarkDeadlockDetection
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_INTERP)' -benchtime=2s . \
		| $(GO) run ./cmd/bench2json -o BENCH_interp.json

# SVM training-pipeline benchmarks, recorded in BENCH_svm.json:
# BenchmarkGridSearch (serial baseline vs pooled search with the
# kernel cache) caps SMO at 300 iterations, where kernel work
# dominates; BenchmarkSolve is one SMO fit at the default cap of
# 100·n iterations, where the solver's own passes dominate, as on the
# real IPAS grid; BenchmarkKernelCache gives the cache's miss/hit unit
# costs. The grid search runs a fixed iteration count because one
# search takes seconds; the cache benches need many iterations to
# resolve the ns-scale hit path.
bench-svm:
	{ $(GO) test -run '^$$' -bench 'BenchmarkGridSearch' -benchtime=2x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchtime=20x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkKernelCache' -benchtime=1000x ./internal/svm; } \
		| $(GO) run ./cmd/bench2json -o BENCH_svm.json

# Single-iteration smoke of the recorded benchmarks (what CI runs):
# proves they execute and leaves JSON reports for bench-check to diff.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_INTERP)' -benchtime=1x . \
		| $(GO) run ./cmd/bench2json -o bench_smoke_interp.json
	{ $(GO) test -run '^$$' -bench 'BenchmarkGridSearch' -benchtime=1x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchtime=1x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkKernelCache' -benchtime=100x ./internal/svm; } \
		| $(GO) run ./cmd/bench2json -o bench_smoke_svm.json

# Bench-regression gate: smoke-run the benchmarks and compare against
# the checked-in reference reports. The 10x tolerance is deliberately
# generous — it passes machine variance and fails order-of-magnitude
# regressions (see cmd/benchdiff).
bench-check: bench-smoke
	$(GO) run ./cmd/benchdiff -base BENCH_interp.json bench_smoke_interp.json
	$(GO) run ./cmd/benchdiff -base BENCH_svm.json bench_smoke_svm.json

# Sectioned-campaign differential smoke (what CI runs): the composed
# whole-program distribution must agree with a monolithic campaign on
# the two fastest workloads, incremental re-analysis accounting must be
# exact (internal/compose/differential_test.go), and the analytic
# trial-count advantage is regenerated and diffed against the
# checked-in BENCH_compose.json — the counts are exact and
# machine-independent, so the benchdiff gate catches any allocation
# that balloons. Regenerate the reference with `make bench-compose`.
compose-smoke:
	$(GO) test -race -shuffle=on -count=1 -timeout=10m \
		-run 'TestDifferentialComposedVsMonolithic/(FFT|IS)|TestIncrementalReanalysis' ./internal/compose
	$(GO) run ./cmd/composebench -o bench_smoke_compose.json
	$(GO) run ./cmd/benchdiff -base BENCH_compose.json -min-ns 1 bench_smoke_compose.json

# Regenerate the checked-in sectioned-vs-monolithic trial-count report.
bench-compose:
	$(GO) run ./cmd/composebench -o BENCH_compose.json

# Chaos tests for the sharded campaign engine under the race detector:
# mid-campaign kills, torn/corrupt/deleted shard journals, and injected
# shard panics must all converge back to the bit-identical result (see
# internal/fault/shard/chaos_test.go).
chaos-smoke:
	$(GO) test -race -shuffle=on -run 'Chaos' -timeout=10m ./internal/fault/...

# Chaos tests for the campaign coordinator under the race detector:
# worker processes SIGKILLed mid-shard, dropped heartbeats, leases
# expiring under slow workers, and a shard forced to retry exhaustion
# must all converge to a merged journal bit-identical to a local
# single-loop run (see internal/campaign/chaos_test.go).
server-chaos-smoke:
	$(GO) test -race -shuffle=on -run 'TestServerChaos' -timeout=10m ./internal/campaign

# Error-model smoke under the race detector: the per-model determinism
# matrix (worker/shard/resume/remote invariance for every built-in
# model), the instrumented-loop-vs-reference-walker differential over
# masks/correlation/stickiness, journal forward-compat (unknown models
# refuse resume in every format), and the iterative-convergence
# workloads' golden checks across all five harness paths (see
# "Error models" in DESIGN.md).
errmodel-smoke:
	$(GO) test -race -shuffle=on -count=1 -timeout=10m \
		-run 'Model|TestDifferentialErrorModels|TestTrialRecordsEffectiveBitAndMask|TestConvergence' \
		./internal/interp ./internal/fault/... ./internal/campaign ./internal/workloads

# Short randomized-schedule fuzz of the simulated MPI runtime under
# the race detector: random rank programs with random comm patterns
# must keep outcome classes schedule-independent and clean/deadlock
# results bit-identical (see FuzzMPISchedule). Then a short fuzz of
# the SMO solver against its frozen pre-rewrite reference, which must
# agree bit for bit (see FuzzSolveDifferential). CI runs this as a
# smoke; run it open-ended with a larger -fuzztime to go hunting.
fuzz-smoke:
	$(GO) test -run '^FuzzMPISchedule$$' -fuzz '^FuzzMPISchedule$$' -fuzztime 10s -race ./internal/interp
	$(GO) test -run '^FuzzSolveDifferential$$' -fuzz '^FuzzSolveDifferential$$' -fuzztime 10s ./internal/svm

# Long-running fuzz of the differential oracle (fused fast loop vs
# instrumented loop vs IR reference walker), the MPI schedule
# invariants and the SMO solver vs its frozen reference. The nightly
# CI job runs each for 10 minutes and uploads any crashers from
# testdata/fuzz as artifacts; FUZZTIME overrides the budget locally.
FUZZTIME ?= 10m
fuzz-nightly:
	$(GO) test -run '^FuzzDifferential$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^FuzzMPISchedule$$' -fuzz '^FuzzMPISchedule$$' -fuzztime $(FUZZTIME) -race ./internal/interp
	$(GO) test -run '^FuzzSolveDifferential$$' -fuzz '^FuzzSolveDifferential$$' -fuzztime $(FUZZTIME) ./internal/svm

# One benchmark per paper table/figure plus component and ablation
# benches; writes bench_output.txt.
bench-all:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every table and figure of the paper's evaluation at quick
# scale (about an hour on one core); -paper for full scale.
experiments:
	$(GO) run ./cmd/experiments -run all | tee quick_experiments_output.txt

experiments-paper:
	$(GO) run ./cmd/experiments -run all -paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customkernel
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/mpiscaling

clean:
	rm -f bench_output.txt test_output.txt bench_smoke_interp.json bench_smoke_svm.json bench_smoke_compose.json

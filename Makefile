GO ?= go

.PHONY: build test test-race vet lint lint-fix fmt-check fmt bench bench-smoke bench-check live-soak net-gate perf-guard examples ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race runs the test suite under the race detector. The package list
# is DERIVED (go list), not hand-maintained: every internal package except
# experiments — which re-runs the whole evaluation and would dominate CI
# under -race — is included automatically, so new packages (livenet,
# transport, ...) can never silently fall out of race coverage. The live
# invariant tests in runtime and the transport conformance suites are the
# concurrency payoff: real goroutines on the protocol hot paths.
test-race:
	$(GO) test -race -short $$($(GO) list ./internal/... | grep -v /experiments)
	$(GO) test -race -count=2 -run 'TestRecoverDeterminism|TestRecoverEquivalence' ./internal/store

vet:
	$(GO) vet ./...

# lint: go vet, staticcheck and the chclint invariant suite are all hard
# gates — the same three CI runs. staticcheck's version is pinned in CI
# (a floating @latest could break the build on a new check); a machine
# without the tool installed still gets the other two, with a loud notice
# so the gap is visible. chclint (cmd/chclint, DESIGN.md §9) enforces the
# repo's DES-determinism, transport-discipline and controller-only-
# mutation invariants; suppressions require a reasoned //chc:allow.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: WARNING staticcheck not installed (CI enforces it); ran go vet only"; \
	fi
	$(GO) run ./cmd/chclint ./...

# lint-fix runs only the chclint suite and prints every finding as
# file:line:col so editors can jump straight to each site; it exits
# nonzero while findings remain. The analyzers do not auto-rewrite — the
# fixes are judgment calls (sorted-keys idiom, routing through
# Controller.ApplySpec, the unlock/defer-relock pattern) — so "fix" means
# a tight find→fix→rerun loop over this target.
lint-fix:
	$(GO) run ./cmd/chclint -v ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-smoke compiles and runs every benchmark in the module exactly once,
# so experiment wiring (registry ids, table shapes the benchmarks parse)
# cannot silently rot. This includes BenchmarkLive (real-goroutine mode)
# alongside the paper figures, BenchmarkScale and BenchmarkDAG.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-check keeps the chain benchmark (chainbench/, a Go module of its
# own built against internal/) compiling and correct: vet and unit tests,
# then 1 s runs of fork-steady (cached state, async writes) and fork-eo
# (every state op a blocking store call), each of whose JSON must report
# "correct": true. An internal API change that strands the benchmark
# (Client.PendingAcks, the StatsSnapshot fields its tracer reads) fails
# here even though the root module's tests stay green.
bench-check:
	cd chainbench && $(GO) vet ./... && $(GO) test ./...
	@set -e; for w in fork-steady fork-eo; do \
		out="$$(bash chainbench/run.sh --workload $$w --seconds 1)"; \
		echo "$$out" | tail -n 1 | jq -e '.correct == true' > /dev/null || \
		{ echo "bench-check: chainbench $$w run not correct: $$out"; exit 1; }; \
	done

# live-soak runs the live execution mode under the race detector for a
# sustained window: fork topology, branch crash + root replay every round,
# conservation / XOR / duplication invariants checked after each.
# CHC_SOAK_SECONDS scales the window (CI uses ~30).
live-soak:
	CHC_SOAK_SECONDS=$${CHC_SOAK_SECONDS:-30} $(GO) test -race -count=1 \
		-run 'TestLiveSoak' -v -timeout 15m ./internal/experiments

# net-gate is the multi-process loopback gate (DESIGN.md §12): a real
# coordinator + two chcd worker processes on 127.0.0.1, jq-asserted clean
# invariants plus nonzero cross-process traffic counters, then the
# SIGKILL round (worker killed mid-stream, invariants re-checked after
# the cross-process failover + replay).
net-gate:
	sh ci/net_gate.sh

# perf-guard regenerates the full benchmark JSON and fails on >25% goodput
# regression of the headline experiments against the checked-in baseline.
# The DES numbers are deterministic, so the threshold only absorbs
# intentional recalibration — bump BENCH_baseline.json in the same commit.
perf-guard:
	$(GO) run ./cmd/chcbench -json BENCH_fresh.json > /dev/null
	$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -fresh BENCH_fresh.json

# examples builds and vets every example program individually, so example
# drift (an API change that strands a walkthrough) breaks the build even
# though examples have no test files.
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do \
		echo "build $$d"; $(GO) build -o /dev/null ./$$d; done

ci: build lint fmt-check examples test

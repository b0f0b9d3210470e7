# Tier-1 verification gate plus extras. `make ci` is what CI runs.
GO ?= go

.PHONY: ci check fmt build vet test race fuzzsmoke benchsmoke bench

# ci is the hosted-CI entry point (.github/workflows/ci.yml), ordered
# fastest-fail-first: formatting, the full build, static analysis, the full
# test suite (every smoke, oracle, torture and allocation pin is an ordinary
# test in it — nothing is re-run by -run pattern, because a pattern that
# stops matching passes silently), the race detector over the packages with real
# concurrency, a short fuzzing pass over every fuzz target, and a
# one-iteration bench smoke that compiles and executes every benchmark once
# so the perf harness can never silently rot.
ci: fmt build vet test race fuzzsmoke benchsmoke

check: ci

# fmt fails when gofmt would change any file, naming the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with real concurrency: te's once-per-Problem
# fingerprint-and-validate walk, the autograd/nn layers
# under core's parallel step, the tunnel computation's
# per-pair workers (each on its own search scratch, all reading one shared
# read-only distance-to-destination table), core's parallel train step
# and pooled inference engine, obs's scrape-while-write registry, reqtrace's
# concurrent annotate/End/export and its stage-histogram feed (named: Go does
# not descend from ./internal/obs),
# resilience's Serve/Reload/Drain churn hammer, the breaker half-open
# contention pin and the mid-RAU deadline and cancellation tests, chaos's
# fault-injecting filesystem and replica-fault injectors under torture, the
# seed-replayable scenario player, the fleet dispatcher's chaos tortures
# (hedges and their cancelled losers, retries, rolling reload mid-burst, and
# the correlated-disaster scenario), the differential-oracle suite, and
# experiments — the one package that runs the HarpSamples, EvalHarp and
# ComputeOptimal worker pools over one model and shared te.Problems, and that
# trains every scheme the paper's figures compare (HARP, DOTE, TEAL).
# Allocation pins skip themselves under -race; `make test` runs them.
race:
	$(GO) test -race ./internal/te ./internal/autograd ./internal/nn ./internal/tunnels ./internal/core ./internal/obs ./internal/obs/reqtrace ./internal/resilience ./internal/chaos ./internal/chaos/replica ./internal/chaos/scenario ./internal/fleet ./internal/verify ./internal/experiments

# fuzzsmoke gives each native fuzz target a short budget (go test allows
# one -fuzz pattern per invocation, hence one line per target; ~15-30s
# total). Committed regression seeds under testdata/fuzz/ also run as
# ordinary test cases in `make test`.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=2s ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzParseTMs$$' -fuzztime=2s ./internal/traffic
	$(GO) test -run='^$$' -fuzz='^FuzzReadCheckpoint$$' -fuzztime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzModelLoad$$' -fuzztime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzMatMul$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzNewCSR$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzNewCSRChecked$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzSoftmaxRow$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzCacheKey$$' -fuzztime=2s ./internal/resilience
	$(GO) test -run='^$$' -fuzz='^FuzzValidateInput$$' -fuzztime=2s ./internal/resilience
	$(GO) test -run='^$$' -fuzz='^FuzzKShortestPaths$$' -fuzztime=2s ./internal/tunnels

# benchsmoke runs every benchmark exactly once in -short mode (the root
# package's ablations train one epoch instead of fifteen under -short).
benchsmoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# bench runs the micro-ledger: every benchmark of the packages below five
# times, folded by cmd/benchjson into one row per benchmark (the median run,
# with the fastest and slowest beside it) of BENCH_1.json. One row per
# (call, problem), each stating its size: the matmul kernels and the tape by
# shape, one training step on Abilene, one inference on the problems
# bench/workloads.go serves — all-pairs Abilene (132 flows) and GEANT (462),
# and KDL-scale (754 nodes, 2,256 flows) — on a kept plan (/hit) and building
# one (/build), and the tunnel computation that precedes the first of them
# on a new topology (ComputeTunnels/*). See the Performance section of the
# README.
BENCH_PKGS = ./internal/tensor ./internal/autograd ./internal/core ./internal/tunnels
BENCH_CMD = $(GO) test -run='^$$' -bench=. -benchmem -count 5 $(BENCH_PKGS)
bench:
	$(BENCH_CMD) | $(GO) run ./cmd/benchjson -out BENCH_1.json -cmd "$(BENCH_CMD)"

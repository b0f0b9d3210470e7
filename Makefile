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
# per-pair workers (each on its own search scratch), core's parallel train step
# and pooled inference engine, obs's scrape-while-write registry, reqtrace's
# concurrent annotate/End/export and its stage-histogram feed (named: Go does
# not descend from ./internal/obs),
# resilience's Serve/Reload/Drain churn hammer, the breaker half-open
# contention pin and the mid-RAU deadline and cancellation tests, chaos's
# fault-injecting filesystem and replica-fault injectors under torture, the
# seed-replayable scenario player, the fleet dispatcher's chaos tortures
# (hedges and their cancelled losers, retries, rolling reload mid-burst, and
# the correlated-disaster scenario), and the differential-oracle suite.
# Allocation pins skip themselves under -race; `make test` runs them.
race:
	$(GO) test -race ./internal/te ./internal/autograd ./internal/nn ./internal/tunnels ./internal/core ./internal/obs ./internal/obs/reqtrace ./internal/resilience ./internal/chaos ./internal/chaos/replica ./internal/chaos/scenario ./internal/fleet ./internal/verify

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

# benchsmoke runs every benchmark exactly once in -short mode (experiment-
# scale benchmarks in the root package skip themselves under -short).
benchsmoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# bench runs the perf-regression suite (hot-path micro and macro
# benchmarks with allocation counts), every benchmark five times, and
# records each as one row — the median run, with the fastest and slowest
# beside it (cmd/benchjson) — of BENCH_1.json. It then records the serving
# ledger BENCH_2.json: the split-cache hit vs miss path, and the
# large-topology ledger BENCH_3.json: one inference on the problems
# bench/workloads.go serves — all-pairs Abilene (132 flows) and GEANT
# (462), and KDL-scale (754 nodes, 2,256 flows) — on a kept plan (/hit)
# and building one (/build), each row stating its flows and tokens, beside
# the tunnel computation that precedes the first of them on a new topology
# (ComputeTunnels/*, stating nodes, edges, flows and k). See the Performance
# section of the README.
BENCH_PKGS = ./internal/tensor ./internal/autograd ./internal/core
BENCH2_RE = 'ServeCache'
BENCH3_RE = 'SplitsAbilene|SplitsGeant|SplitsKDL|ComputeTunnels'
BENCH3_PKGS = ./internal/core ./internal/tunnels
BENCH_FLAGS = -benchmem -count 5
bench:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench=. $(BENCH_FLAGS) $(BENCH_PKGS) | \
		/tmp/benchjson -out BENCH_1.json -cmd "go test -run='^$$' -bench=. $(BENCH_FLAGS) $(BENCH_PKGS)"
	$(GO) test -run='^$$' -bench=$(BENCH2_RE) $(BENCH_FLAGS) ./internal/resilience | \
		/tmp/benchjson -out BENCH_2.json -cmd "go test -run='^$$' -bench=$(BENCH2_RE) $(BENCH_FLAGS) ./internal/resilience"
	$(GO) test -run='^$$' -bench=$(BENCH3_RE) $(BENCH_FLAGS) $(BENCH3_PKGS) | \
		/tmp/benchjson -out BENCH_3.json -cmd "go test -run='^$$' -bench=$(BENCH3_RE) $(BENCH_FLAGS) $(BENCH3_PKGS)"

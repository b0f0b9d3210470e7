// Package harpte is a from-scratch Go reproduction of "Transferable Neural
// WAN TE for Changing Topologies" (HARP, ACM SIGCOMM 2024): a
// topology-transferable neural traffic-engineering model, the DOTE and TEAL
// baselines it is compared against, an exact/approximate min-MLU LP solver
// standing in for Gurobi, and a synthetic AnonNet-like dataset generator —
// all stdlib-only.
//
// The public entry points live under internal/ (this repository is a
// self-contained research artifact, consumed through its binaries):
//
//   - cmd/tebench regenerates every table and figure of the paper (the one
//     entry point for them),
//   - cmd/harpcli trains/evaluates HARP models,
//   - cmd/tegen generates and inspects synthetic datasets,
//   - examples/ holds runnable walkthroughs of the library API,
//   - bench_test.go holds the ablation, LP-solver, fairness and dataset
//     benchmarks; `make bench` writes the micro-ledger BENCH_1.json.
//
// See DESIGN.md for the system inventory, the per-experiment index and the
// documented substitutions for the paper's proprietary dependencies, and
// EXPERIMENTS.md for paper-vs-measured results.
package harpte

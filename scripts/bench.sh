#!/usr/bin/env bash
# Regenerates the performance artifacts: the criterion micro-benchmarks of
# crates/bench/benches/pipeline.rs (CTS, analyzer, power, optimizer,
# incremental-vs-full and Monte-Carlo groups) and the BENCH_parallel.json /
# BENCH_cache.json / BENCH_timing.json / BENCH_pareto.json records at the
# repository root.
#
#   scripts/bench.sh            full run (criterion + bench_parallel +
#                               bench_cache + bench_timing + bench_pareto)
#   scripts/bench.sh --smoke    fast pass: the four record writers in
#                               --smoke mode only
#
# Speedups in BENCH_parallel.json depend on spare cores: a single-core
# machine honestly records ~1x (the parallel paths are still exercised and
# asserted bit-identical to serial).
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

if [ "${1:-}" = "--smoke" ]; then
    step "bench_parallel --smoke"
    cargo run -q --release -p snr-bench --bin bench_parallel -- --smoke
    step "bench_cache --smoke"
    cargo run -q --release -p snr-bench --bin bench_cache -- --smoke
    step "bench_timing --smoke"
    cargo run -q --release -p snr-bench --bin bench_timing -- --smoke
    step "bench_pareto --smoke"
    cargo run -q --release -p snr-bench --bin bench_pareto -- --smoke
    exit 0
fi

# The parallel paths are timed only by bench_parallel below, which asserts
# parallel == serial first.
step "criterion benches (pipeline)"
cargo bench -p snr-bench

step "bench_parallel (full)"
cargo run -q --release -p snr-bench --bin bench_parallel

step "bench_cache (full)"
cargo run -q --release -p snr-bench --bin bench_cache

step "bench_timing (full)"
cargo run -q --release -p snr-bench --bin bench_timing

step "bench_pareto (full)"
cargo run -q --release -p snr-bench --bin bench_pareto

echo
echo "bench: BENCH_parallel.json, BENCH_cache.json, BENCH_timing.json and BENCH_pareto.json regenerated"

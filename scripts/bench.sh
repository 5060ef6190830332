#!/bin/sh
# Build and run the benchmark harnesses:
#   BENCH_1.json — ped-bench, analysis timings over the eight workshop
#                  programs (or $1 if given)
#   BENCH_2.json — ped-serve-bench, server throughput/latency for 1 vs N
#                  concurrent wire clients (or $2 if given)
#   BENCH_3.json — ped-lint-bench, cold vs fingerprint-cached vs
#                  incremental whole-repo lint (or $3 if given)
#   BENCH_4.json — ped-bench test-kind breakdown, canonicalization
#                  engine on vs off with per-kind hit counts (or $4)
#   BENCH_5.json — ped-bench scalar-facts store: serial vs auto-prewarm
#                  open, warm vs cold facts rebuild, single-unit-edit
#                  hit rates, String-vs-NameId lookup micro (or $5)
#   BENCH_6.json — ped-serve-bench --bench6, the event-loop/snapshot
#                  suite: paired-median 1-vs-8-client scaling (gated to
#                  beat the thread-pool BENCH_2 reference), read-heavy
#                  mix p50/p99 under a writer storm (gated: storm read
#                  p99 <= 3x no-writer baseline), >=1k concurrent
#                  sessions over 32 connections (or $6)
#   BENCH_7.json — ped-vm-bench --bench7, the bytecode-VM suite:
#                  paired-median tree-walk vs VM speedups per workload
#                  (gated: >= 3x on at least half), trace-mode overhead
#                  on slalom, and validate end-to-end latency with the
#                  confirmed/disproven verdict gate (or $7)
#   BENCH_8.json — ped-par-bench, the whole-program auto-parallelizer:
#                  cold classification+gate vs memoized parallelize(),
#                  loops/sec, DOALLs found/verified per workload (or $8)
#   BENCH_9.json — ped-batch-bench, the corpus-scale batch driver: cold
#                  vs disk-warm over a 500-unit synthetic corpus (gated
#                  >= 5x), 1-vs-8-thread fan-out scaling (gate
#                  adapts to the measured core count), cache size
#                  accounting (or $9)
set -e
cd "$(dirname "$0")/.."
OUT1="${1:-BENCH_1.json}"
OUT2="${2:-BENCH_2.json}"
OUT3="${3:-BENCH_3.json}"
OUT4="${4:-BENCH_4.json}"
OUT5="${5:-BENCH_5.json}"
OUT6="${6:-BENCH_6.json}"
OUT7="${7:-BENCH_7.json}"
OUT8="${8:-BENCH_8.json}"
OUT9="${9:-BENCH_9.json}"
cargo build --release --offline -p ped-bench \
    --bin ped-bench --bin ped-serve-bench --bin ped-lint-bench \
    --bin ped-vm-bench --bin ped-par-bench --bin ped-batch-bench
./target/release/ped-bench "$OUT1" "$OUT4" "$OUT5"
./target/release/ped-serve-bench "$OUT2"
./target/release/ped-serve-bench --bench6 "$OUT6"
./target/release/ped-lint-bench "$OUT3"
./target/release/ped-vm-bench --bench7 "$OUT7"
./target/release/ped-par-bench "$OUT8"
./target/release/ped-batch-bench "$OUT9"

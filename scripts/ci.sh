#!/bin/sh
# The tier-1 gate: formatting, release build (library, binaries, and
# examples), and the full test suite.
set -e
cd "$(dirname "$0")/.."
cargo fmt --all -- --check
cargo build --release --offline --workspace
cargo test -q --offline
# Every member crate's unit and integration tests (the line above runs
# only the root package's).
cargo test -q --offline --workspace

# ped-lint self-check over the examples/ fixtures: the clean fixtures
# must pass even with warnings denied, and the seeded racy fixture must
# be caught (nonzero exit).
./target/release/ped-lint --deny-warnings \
    examples/fortran/saxpy.f examples/fortran/reduction.f
if ./target/release/ped-lint examples/fortran/recurrence.f >/dev/null; then
    echo "ci: ped-lint failed to flag examples/fortran/recurrence.f" >&2
    exit 1
fi
echo "ci: ped-lint self-check passed"

# Dependence-engine gate: the differential oracle (canonicalization
# engine vs per-pair tester, byte-identical graphs).
cargo test -q --offline -p ped-dependence --test hierarchy_oracle
echo "ci: dependence oracle passed"

# Interning gates: rendered output across every workload must be
# byte-identical to the pre-interning goldens, one reanalyze miss must
# build each scalar artifact exactly once, and a cold batch analysis
# must build the exact pinned number of symbol/ref tables and CFGs.
cargo test -q --offline -p ped --test interning_oracle
cargo test -q --offline -p ped --test build_counts
cargo test -q --offline -p ped-batch --test build_counts
echo "ci: interning oracle + single-build gates passed"

# Bench smoke gates, one process:
# * dependences: the fast path must match the general tester on every
#   workload unit (plus synth60), serial and parallel; and a forced
#   no-op reanalyze of every workload must record zero scalar-facts
#   misses (nothing rebuilt);
# * server: 8 concurrent wire clients against the nonblocking event
#   loop, every response byte-identical to the single-threaded
#   in-process oracle;
# * VM: every workload (plus synth60) must execute byte-identically on
#   the VM vs the tree-walk interpreter — output lines, race reports,
#   step counts, and parallel-loop stats — serially, under 8 workers,
#   and under the validating race checker.
./target/release/ped-bench --smoke
echo "ci: bench smoke gates passed"

# Auto-parallelizer gate: ped-par over every workload (plus synth60)
# must classify all nests, and every emitted CDOALL must survive its
# differential gate — 1 worker vs 8, byte-identical output lines, zero
# shadow-tracker races, no demotions.
./target/release/ped-par --smoke
echo "ci: ped-par smoke passed"

# Batch-driver gate: the persistent-cache smoke over a 30-program
# synthetic corpus — disk-warm and corruption-recovery runs must render
# byte-identical bodies to the cold run, warm runs must be answered
# from disk, and vandalized cache entries must recompute and self-heal.
./target/release/ped-batch --smoke
# The same gate on four workers: on a one-core host the default runs
# one worker, which would leave the multi-worker fan-out unchecked.
./target/release/ped-batch --smoke --threads 4
echo "ci: ped-batch persistent-cache smoke passed"

# Benchmark-artifact gate: every BENCH_*.json that EXPERIMENTS.md
# refers to must exist at the repo root (a missing artifact means a
# bench run was skipped or its output was never committed).
for b in $(grep -o 'BENCH_[0-9]*\.json' EXPERIMENTS.md | sort -u); do
    if [ ! -f "$b" ]; then
        echo "ci: EXPERIMENTS.md references $b but it does not exist" >&2
        exit 1
    fi
done
echo "ci: benchmark artifacts present"

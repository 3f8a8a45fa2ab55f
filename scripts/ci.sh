#!/usr/bin/env bash
# The full local CI gate: release build, the whole workspace's test
# suite (every crate's unit, integration and property tests: the
# client/server suites, the shard crate's 2PC crash/recovery and
# fan-out fidelity tests, the fixed-seed chaos smoke, and the backend
# conformance and durability suites over both SimDisk and FileDisk),
# a release-mode concurrency stress run (the #[ignore]d elevated-thread-
# count test in tests/concurrency.rs), the #[ignore]d multi-seed chaos
# hammer in release mode, lint (clippy with warnings-as-errors, plus the
# grep denies in scripts/lint.sh), and the three bench binaries.
# Each bench binary checks its own gates in process, prints every one,
# and exits nonzero on a breach: parallel_query (work per scanned row,
# lock-free snapshot readers under writers, group commit; writes
# BENCH_parallel_query.json), net_throughput --smoke (router passthrough,
# the 1.1k-connection crowd, event-loop wakeups and executor turns per
# request; writes BENCH_net.json) and experiments (the paper's claims
# E1-E14 in counts; writes BENCH_experiments.json).
# The benchmark package (benchmark/, its own workspace) is covered from
# outside: its unit tests, then a smoke run of all four workloads whose
# results its own validator checks against BENCHMARK.json.
#
# Every step runs under `timeout` with its budget in seconds beside it
# (several times what it takes from a cold target directory on a 2-CPU
# host, where the whole script takes about two minutes), so a livelock
# fails CI instead of hanging it. Each step prints how long it took.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  local budget=$1 start=$SECONDS
  shift
  echo "==> $* (budget ${budget}s)"
  timeout "$budget" "$@"
  echo "    took $((SECONDS - start))s"
}

step 300 cargo build --release
# The root manifest is a package as well as the workspace: without
# --workspace only the root package's tests would run.
step 300 cargo test -q --workspace
step 60 cargo test -q --release --test concurrency -- --ignored
step 60 cargo test -q --release --test chaos -- --ignored
step 300 scripts/lint.sh
step 60 cargo run -q -p orion-bench --release --bin parallel_query
step 60 cargo run -q -p orion-bench --release --bin net_throughput -- --smoke
# E8's coarse-locking row livelocks for a random while (ROADMAP 1(a)):
# 8-20 s of this step's 15-30 s on a 2-CPU host, minutes at some past commits.
step 300 cargo run -q -p orion-bench --release --bin experiments
step 300 cargo test --release --offline --manifest-path benchmark/Cargo.toml
step 300 cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --all --smoke
step 60 cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- validate .bench_out/results.json

echo "==> ci.sh: all gates passed in ${SECONDS}s"

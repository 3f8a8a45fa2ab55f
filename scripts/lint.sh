#!/usr/bin/env bash
# Workspace lint gate: clippy over every target (libs, bins, tests,
# benches, examples) with warnings promoted to errors — the workspace
# and the benchmark package (a workspace of its own) — plus a grep
# deny that keeps sleep-based polling out of the evented network
# core's hot paths. Run from anywhere inside the repo; CI and
# pre-commit should call exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

# The server went readiness-based in the evented-core refactor; any
# thread::sleep creeping back into crates/net/src is a polling
# regression. The client is exempt: its reconnect retry backoff
# legitimately sleeps between dial attempts.
if grep -rn "thread::sleep" crates/net/src --include='*.rs' | grep -v '^crates/net/src/client\.rs:'; then
  echo "FAIL: thread::sleep in crates/net/src — the server is readiness-driven; poll, don't sleep" >&2
  exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
exec cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

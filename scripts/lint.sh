#!/usr/bin/env bash
# Workspace lint gate: clippy over every target (libs, bins, tests,
# benches, examples) with warnings promoted to errors — the workspace
# and the benchmark package (a workspace of its own) — plus grep denies
# that keep sleep-based polling out of the evented network core's hot
# paths, deprecated aliases out of the workspace, and unused shim
# dependencies out of the manifests. Run from anywhere inside the repo;
# CI and pre-commit should call exactly this.
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

# Nothing outside the repo links against it, so an old name is deleted
# with its last caller, not kept as a deprecated alias.
if grep -rnE '#\[deprecated|allow\(deprecated\)' src tests examples crates shims --include='*.rs'; then
  echo "FAIL: deprecated item or allow(deprecated) in the workspace — delete the alias and migrate its callers" >&2
  exit 1
fi

# A test is ignored only to be run elsewhere: #[ignore] may appear only
# in the test files scripts/ci.sh runs with --ignored, so nothing
# known-wrong can be parked behind it.
hammered=$(sed -n 's/.*--test \([a-z0-9_]*\) -- --ignored.*/\1/p' scripts/ci.sh | paste -sd'|')
if grep -rn '#\[ignore' src tests examples crates shims benchmark/src --include='*.rs' \
    | grep -vE "^tests/($hammered)\.rs:"; then
  echo "FAIL: #[ignore] outside the suites scripts/ci.sh runs with --ignored — fix the test or the code" >&2
  exit 1
fi

# Every shim a manifest names is imported somewhere under that crate.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  roots=$(ls -d "$dir"/src "$dir"/tests "$dir"/benches "$dir"/examples 2>/dev/null || true)
  for shim in $(ls shims); do
    if grep -qE "^$shim(\.workspace| *= *\{ *workspace)" "$manifest" \
        && ! grep -rqE "\b$shim::" $roots --include='*.rs'; then
      echo "FAIL: $manifest declares $shim but nothing under $dir imports it" >&2
      exit 1
    fi
  done
done

cargo clippy --workspace --all-targets -- -D warnings
exec cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

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

# Each line under src/ crates/ tests/ examples/ that matches the ERE $1
# and whose enclosing fn, written FILE:FN, does not match the ERE $2.
outside_fns() {
  grep -rlE "$1" src crates tests examples --include='*.rs' | PAT="$1" OK="$2" xargs -r awk '
    /^[ \t]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
    $0 ~ ENVIRON["PAT"] && (FILENAME ":" cur) !~ ENVIRON["OK"] { print FILENAME ":" FNR ": in fn " cur }'
}

# Rollback and 2PC abort revert what their transaction wrote; only a
# restart re-derives the world. rebuild_runtime( may appear in its own
# definition and in the one restart body, and nowhere else.
strays=$(outside_fns 'rebuild_runtime\(' \
  '^crates/core/src/(database\.rs:restart|derived\.rs:rebuild_runtime)$')
if [ -n "$strays" ]; then
  echo "$strays" >&2
  echo "FAIL: rebuild_runtime( outside Database::restart — revert by delta (apply_change)" >&2
  exit 1
fi

# The planner costs an index probe by its exact, capped posting count
# (DataSource::index_count); the key-span interpolation it replaced
# stays deleted.
if grep -rnE 'fn (index_)?key_bounds\b' crates --include='*.rs'; then
  echo "FAIL: key_bounds under crates/ — cost index probes with index_count" >&2
  exit 1
fi

# std's tuple-bound BTreeMap::range panics on an inverted pair, and the
# planner merges `w > 9000 and w < 100` into exactly that. Ranges go
# through orion_index::BTree::range, which yields nothing for one.
if grep -rn '\.range((' src crates --include='*.rs' | grep -v '^crates/index/src/btree\.rs:'; then
  echo "FAIL: .range(( outside crates/index/src/btree.rs — std's range panics on an inverted bound pair; use orion_index::BTree::range" >&2
  exit 1
fi

# One home per byte format: strings and domains are coded only in
# orion_types (whose checked reads every decoder uses, so bytes::Buf's
# panicking getters stay out), and frame checksums only in orion_storage.
if grep -rnE 'fn (put|get)_(str|domain)\b' src tests examples crates shims --include='*.rs' \
    | grep -v '^crates/types/src/'; then
  echo "FAIL: a string or Domain codec outside crates/types/src — use orion_types::wire / Domain" >&2
  exit 1
fi
if grep -rnE 'bytes::(\{[^}]*)?\bBuf\b' src tests examples crates shims --include='*.rs' \
    | grep -v '^crates/types/src/'; then
  echo "FAIL: bytes::Buf outside crates/types/src — decode through orion_types::wire" >&2
  exit 1
fi
if grep -rn 'crc32(' src tests examples crates --include='*.rs' | grep -v '^crates/storage/'; then
  echo "FAIL: crc32( outside crates/storage — frame a log with orion_storage::frame" >&2
  exit 1
fi

# A page fault has one meaning, given in one place: read and write
# errors, torn writes and bit rot take effect in the page device alone,
# over whichever byte store holds the pages. The injector's own tests in
# fault.rs fire the disk sites directly.
if grep -rn 'fire(FaultSite::Disk' src tests examples crates --include='*.rs' \
    | grep -vE '^crates/storage/src/(device|fault)\.rs:'; then
  echo "FAIL: a disk fault site fired outside crates/storage/src/device.rs — page faults belong to PageDevice" >&2
  exit 1
fi

# Counters only count up: a phase is measured as the difference of two
# stats() snapshots, never by zeroing a layer's counters. The only
# reset( methods clear lock and version state on a crash.
if grep -rnE 'fn reset_(metrics|stats)\b' src crates --include='*.rs'; then
  echo "FAIL: a metric reset under src/ or crates/ — measure by the difference of two stats() snapshots" >&2
  exit 1
fi
if grep -rn 'fn reset(' src crates --include='*.rs' \
    | grep -vE '^crates/(tx/src/manager|core/src/mvcc)\.rs:'; then
  echo "FAIL: fn reset( outside the lock manager and the version store — counters never go back to zero" >&2
  exit 1
fi

# Every series is declared once, in an orion_obs::metrics! table; the
# render helpers are called only by the code that table generates.
if grep -rnE 'render::(counter|gauge|histogram|plain_histogram)\(' src tests examples crates --include='*.rs' \
    | grep -v '^crates/obs/src/'; then
  echo "FAIL: a series rendered by hand outside crates/obs/src — declare it in an orion_obs::metrics! table" >&2
  exit 1
fi

# The machine's parallelism is asked in two places: once per process
# by the executor's degree and once per bind by the server. The bench
# binaries record it beside their numbers.
strays=$(outside_fns 'available_parallelism' \
  '^crates/(bench/|query/src/exec\.rs:resolve_threads$|net/src/server\.rs:resolved_io_threads$)')
if [ -n "$strays" ]; then
  echo "$strays" >&2
  echo "FAIL: available_parallelism outside resolve_threads and resolved_io_threads — read the cached degree" >&2
  exit 1
fi

# Scoped threads are std::thread::scope; the crossbeam shim is gone.
if grep -n 'crossbeam' Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; then
  echo "FAIL: crossbeam in a manifest — use std::thread::scope" >&2
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

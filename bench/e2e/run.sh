#!/usr/bin/env bash
# Build the benchmark and the lbr-reduce binary from this checkout's
# sources, then run the benchmark.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload oneshot-jvm --seed 42 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/lbr_bench.exe ./bin/lbr_reduce.exe 1>&2
exec ./_build/default/bench/e2e/lbr_bench.exe "$@"

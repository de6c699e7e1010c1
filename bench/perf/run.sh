#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#
#   bash bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of a checkout.  The build stays inside the checkout
# (_build, no shared dune cache) and its output goes to stderr, so the
# last line of stdout is the benchmark's result object.
set -euo pipefail
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

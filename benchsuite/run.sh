#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#
#   bash benchsuite/run.sh --workload verify-third --seed 0 --seconds 15 --trace 0
#
# Arguments go to benchsuite/suite.exe unchanged (see README.md there).
# The build's chatter goes to stderr, so stdout carries only metrics.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchsuite/dune ]; then
  echo "benchsuite: run from a pll-sos source tree (dune-project, lib/ and benchsuite/ needed)" >&2
  exit 2
fi
# Keep every build product inside the tree: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchsuite/suite.exe >&2
exec ./_build/default/benchsuite/suite.exe "$@"

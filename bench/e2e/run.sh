#!/usr/bin/env bash
# Builds the end-to-end benchmark from source with the release profile and
# runs one workload:
#
#   bash bench/e2e/run.sh --workload saturated --seed 7 --seconds 12 --trace 0
#
# Run it from the root of the source tree.  The build goes to .bench_build
# (not _build, so dev and release builds do not evict each other) and
# skips dune's shared cache, so nothing is written outside the tree.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/e2e/dune ]]; then
  echo "run.sh: run from the root of the SplitBFT source tree" >&2
  exit 2
fi

dune build --root . --build-dir .bench_build --profile release --cache disabled \
  bench/e2e/main.exe 1>&2
exec .bench_build/default/bench/e2e/main.exe run "$@"

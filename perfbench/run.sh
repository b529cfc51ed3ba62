#!/bin/sh
# Builds acstab and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#   sh perfbench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -f bin/acstab.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an acstab checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The build stays inside the checkout: no shared dune cache.
dune build --root . --cache=disabled --display=quiet \
  ./bin/acstab.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"

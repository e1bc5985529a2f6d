#!/bin/sh
# One benchmark run, from the root of a source checkout:
#
#   sh ledger/bench.sh --workload eval-j1 --seed 2022 --seconds 20 --trace 0
#
# Builds the runner from source (the first run of a checkout compiles the
# libraries), then replaces this shell with it.  The last line of standard
# output is the run's JSON result; everything dune prints goes to stderr.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "ledger/bench.sh: run it from the root of a source checkout" >&2
  exit 2
fi

dune build --root . --cache=disabled --display=quiet ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe bench "$@"

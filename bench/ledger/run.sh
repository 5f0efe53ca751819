#!/usr/bin/env bash
# Build the ledger and the daemon it drives from this checkout's sources,
# then run the ledger with the given arguments (see README.md here):
#
#   bash bench/ledger/run.sh --workload eco-2023c2 --seed 3 --seconds 10 --trace 0
#
# Build output goes to stderr, so the ledger's last stdout line stays its
# JSON result.  The shared dune cache is off so that building writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled bench/ledger/ledger.exe bin/legalize.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"

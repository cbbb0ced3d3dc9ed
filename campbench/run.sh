#!/usr/bin/env bash
# Build the campaign benchmark from source, then run it with the given
# arguments, e.g.
#   bash campbench/run.sh --workload zoo-abonn --seed 7 --seconds 20 --trace 0
# Must be started from the root of a full checkout (it needs dune-project
# and lib/); build output goes to stderr, so stdout ends with the result.
set -euo pipefail
for need in dune-project lib; do
  if [ ! -e "$need" ]; then
    echo "campbench: ./$need not found; run from the root of a full checkout" >&2
    exit 2
  fi
done
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./campbench/campbench.exe 1>&2
exec ./_build/default/campbench/campbench.exe "$@"

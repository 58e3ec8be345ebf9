#!/bin/sh
# Build the Eden benchmark from the sources of this checkout and run one
# workload:
#
#   sh edenbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build uses dune's release profile in .bench_build (kept apart from
# the development build in _build) with the shared dune cache off, so it
# reads and writes nothing outside the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f lib/enclave/enclave.mli ]; then
  echo "edenbench: no Eden sources beside the benchmark (run from a full checkout)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --profile release --build-dir .bench_build \
  ./edenbench/main.exe >&2
exec ./.bench_build/default/edenbench/main.exe "$@"

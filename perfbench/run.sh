#!/bin/sh
# Build the benchmark from source (release profile) and run it.
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout; build output goes to .bench_build.
set -e
dune build --root . --build-dir .bench_build --profile release ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"

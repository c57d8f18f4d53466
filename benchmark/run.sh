#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given, from the root of the checkout. The
# binary, Go's build cache and its temporary files all stay inside the
# checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/evsdb-benchmark" .)
cd "$root"
exec "$build/evsdb-benchmark" "$@"

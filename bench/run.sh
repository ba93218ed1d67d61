#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: builds the bench from source and
# runs it. Everything the build and the run write — Go's build cache and
# work directory, the binaries, generated inputs — stays under
# <checkout>/.bench_build, so the benchmark reads and writes only inside its
# checkout. Arguments are passed through (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" -build "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build and runs it from
# the repository root. The Go build cache, the toolchain's temporary files
# and its per-user configuration are kept there too, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C benchmark -o "$build/brisk-benchmark" .
exec "$build/brisk-benchmark" "$@"

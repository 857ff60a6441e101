#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout, then
# runs it with the arguments given:
#
#   bash bench/run.sh --workload direct-read --seed 12 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/grbac-bench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

# Rebuild when the binary is missing or any Go source of the repository is
# newer than it; bench/ is a module of its own that replaces the root module
# with "..", so the whole tree is its source.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \
      \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
  go build -C "$here" -o "$bin" .
fi

cd "$root"
exec "$bin" "$@"

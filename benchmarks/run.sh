#!/usr/bin/env bash
# Builds rbench from this checkout and runs it with the given arguments.
# Everything the build writes (the binary and Go's build cache) stays under
# .bench_build/ in the checkout; nothing is fetched, the module has no
# dependencies outside the repository and the standard library.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/rbench" ./cmd/rbench
cd ..
exec "$out/rbench" "$@"

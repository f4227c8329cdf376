#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash paperbench/run.sh --workload surface-sweep --seed 1 --seconds 20 --trace 0
#
# The build and its caches live in .bench_build/ at the repository root, so
# nothing is read or written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "paperbench: $root is not a hetarch checkout (no go.mod and internal/ beside paperbench/)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
		GOTELEMETRY=off go build -o "$build/paperbench" .
)
exec "$build/paperbench" "$@"

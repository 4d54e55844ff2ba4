#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments, e.g.
#   bash servebench/run.sh --workload kg_serve --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build products and the Go build cache stay
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build" # buildDir in main.go
mkdir -p "$out"
# The Go toolchain keeps its caches and settings under HOME and GOPATH;
# point both into the build directory so nothing is written outside.
(cd "$root/servebench" && HOME="$out/home" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
	GOTOOLCHAIN=local GOWORK=off go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"

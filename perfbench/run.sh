#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload fig4-lazy --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/: the Go build and module caches, the binary, the
# span files of traced runs and the servers' journal directories.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod and perfbench/go.mod are needed to build the benchmark" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"

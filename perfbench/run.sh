#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload table3_kernels --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# root (or in $CARGO_TARGET_DIR when it is set), including the Go build
# cache, so the run reads and writes nothing outside the checkout apart
# from the Go toolchain it reads.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/cache"

export GOCACHE="$out/gocache" GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=-buildvcs=false GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"

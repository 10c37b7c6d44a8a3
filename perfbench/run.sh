#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fabric-stream --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory: build cache, module and config
# directories, temporary files, the binary, and the traced run's outputs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"

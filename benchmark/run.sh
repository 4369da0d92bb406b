#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash benchmark/run.sh --workload svc-replay --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its
# settings, the binary) goes to .bench_build at the repository root, and
# nothing is downloaded: the benchmark needs only the standard library and
# the repository itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/benchmark" build -o "$out/hotpotato-bench" .
exec "$out/hotpotato-bench" "$@"

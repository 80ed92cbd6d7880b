#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout root. Without the engine's sources next to it (../go.mod,
# ../internal) the build fails and the script exits non-zero.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/runs" "$@"

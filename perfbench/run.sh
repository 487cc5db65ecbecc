#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it with the given
# arguments, from the root of an mtbench checkout:
#
#   bash perfbench/run.sh --workload exhaust --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout. The build fails (and the script exits non-zero
# without printing a result) when the mtbench sources are not there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --scratch "$out" "$@"

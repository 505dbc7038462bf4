#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write (Go build cache, temporary files, the binary, journal files)
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out/work" "$@"

#!/bin/sh
# Builds gcsperf from the sources of the checkout it is started in and runs
# it with the given flags. Run it from the repository root:
#
#	sh cmd/gcsperf/run.sh --workload hpc_w --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the go command's own state and the
# binary all stay under .bench_build/ in the checkout; nothing is fetched
# over the network.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/gcsperf" && go build -o "$build/gcsperf" .)
exec "$build/gcsperf" "$@"

#!/bin/sh
# Builds hpe-perf from the sources of the checkout it is run in, then runs
# it with the given arguments. Run it from the repository root:
#
#	sh hpe-perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporary files, the
# go command's own config and telemetry) stays under .bench_build/hpe-perf in
# the checkout, and the local toolchain is used as is.
set -eu
root=$(pwd)
out="$root/.bench_build/hpe-perf"
mkdir -p "$out/cache" "$out/tmp" "$out/mod" "$out/config"
GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
	go -C "$root/hpe-perf" build -o "$out/hpe-perf" .
exec "$out/hpe-perf" "$@"

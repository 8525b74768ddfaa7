#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# a socrel checkout:
#
#   bash perfbench/run.sh --workload fleet-point --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steadiness 5 --seconds 10
#
# Every build artifact (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

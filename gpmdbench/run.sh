#!/usr/bin/env bash
# Builds the gpmd benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash gpmdbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/gpmdbench" && go build -o "$out/gpmdbench" .)
exec "$out/gpmdbench" -dir "$out" "$@"

#!/bin/sh
# Builds tierd, tracegen, the tierbench driver and its reference server
# refd from this checkout, then runs the driver with the given
# arguments, e.g.
#
#   bash tierbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries,
# work directories, results) stays under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/tierd" ./cmd/tierd
go build -o "$out/bin/tracegen" ./cmd/tracegen
(cd tierbench && go build -o "$out/bin/tierbench" . && go build -o "$out/bin/refd" ./refd)
exec "$out/bin/tierbench" -out "$out" "$@"

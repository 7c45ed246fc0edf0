#!/usr/bin/env bash
# Builds the benchmark, cmd/ratelimiter and cmd/syncbench from the
# checkout this is run in, then runs the benchmark with the given flags.
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload storm --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files, trace files) goes to .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
go build -buildvcs=false -o "$out/ratelimiter" ./cmd/ratelimiter >&2
go build -buildvcs=false -o "$out/syncbench" ./cmd/syncbench >&2
exec "$out/perfbench" -bin "$out" "$@"

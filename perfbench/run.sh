#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash perfbench/run.sh --workload nersc-paper --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and every span list or profile the run writes goes under
# .bench_build/ at the root of the checkout. Build output goes to
# stderr, so the last line of stdout is the result.
set -euo pipefail
# Fall back to the standard toolchain location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The XDG directories keep the go command's own state (telemetry
# counters) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" "$@"

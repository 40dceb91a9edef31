#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload train --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and temporary
# file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload kernel-dse --seed 1 --seconds 45 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. The build
# fails, and so does this script, when the repository's sources are absent.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$(pwd)/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/go/cache" GOMODCACHE="$build/go/mod" GOPATH="$build/go/path"
export XDG_CONFIG_HOME="$build/go/config" XDG_CACHE_HOME="$build/go/xdg-cache"
export GOTMPDIR="$build/go/tmp" TMPDIR="$build/go/tmp"
mkdir -p "$GOTMPDIR"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"

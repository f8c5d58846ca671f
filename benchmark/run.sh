#!/usr/bin/env bash
# Builds the ledger runner from source and runs it with the given flags.
# Everything the build reads or writes besides the Go toolchain itself
# (compiler cache, temporary files, telemetry counters, the binary) stays
# under .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
# No network, no other toolchain, no C compiler: the runner is pure Go and
# its only dependency is the repository it sits in.
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/ledger" .)
exec "$build/ledger" "$@"

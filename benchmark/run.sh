#!/usr/bin/env bash
# Builds the benchmark and the ctredis server it drives, then runs the
# benchmark. Everything built or written stays inside the checkout, under
# .bench_build/ at its root (and benchmark/out/ for traces).
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh repeat -n 10 -out A.json
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOPROXY=off GOWORK=off
# The benchmark is its own module (go.mod here replaces repro with ../), so
# both binaries build from this directory.
(cd "$here" && go build -o "$build/bin/benchmark" . && go build -o "$build/bin/ctredis" repro/cmd/ctredis)
if [ "${1:-}" = compare ]; then
	exec "$build/bin/benchmark" "$@"
fi
# Flags may follow the repeat subcommand's own, so they go last.
exec "$build/bin/benchmark" "$@" -ctredis "$build/bin/ctredis" -workdir "$build/tmp" -outdir "$here/out"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root:
#   bash perfbench/run.sh --workload etc-pressure --seed 1 --seconds 16 --trace 0
# Build products, the Go build cache and the traced run's spans go to
# .bench_build/ inside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pama-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the pamakv repository" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

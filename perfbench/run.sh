#!/usr/bin/env bash
# Builds and runs the repository benchmark.  From the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/perfbench in the
# checkout: the Go build cache, the binary, the per-seed fixtures, traces
# and per-run diagnostics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2
# The fixture is built (once per seed) in its own process, so the measured
# process below never pays for it, in time or in peak memory.
"$build/bin/perfbench" --root "$root" --mode fixture "$@" >&2
exec "$build/bin/perfbench" --root "$root" "$@"

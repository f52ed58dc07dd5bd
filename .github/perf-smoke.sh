#!/usr/bin/env bash
# perf-smoke: benchmark a base commit and the current checkout on the same
# machine and fail on any suite op that got slower than its threshold, went
# missing, or changed its functional result.
#
# Usage: .github/perf-smoke.sh BASE_REV
#
# Both trees are built from source (the base in a temporary git worktree).
# Each of 20 rounds runs the full suite (`dscflow -bench-json`, best of 3
# per op) once per side, alternating which side goes first, so machine
# drift hits both sides alike.  Per op, the fastest run of each side is
# compared with benchdiff.  A self-comparison (BASE_REV = HEAD) must pass.
#
# Timings are judged against the base run; the op set and the functional
# check fingerprints against the newest committed BENCH_pr<N>.json in the
# checkout.  A change that alters a check string or the op set on purpose
# (a re-bless) commits a new BENCH_pr<N>.json with the new fingerprints.
set -euo pipefail

base_rev=$1
rounds=20
work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach "$work/base" "$base_rev" >/dev/null
(cd "$work/base" && go build -o "$work/dscflow-base" ./cmd/dscflow)
go build -o "$work/dscflow-head" ./cmd/dscflow
go build -o "$work/benchdiff" ./cmd/benchdiff

for i in $(seq 1 "$rounds"); do
	order="base head"
	if [ $((i % 2)) -eq 0 ]; then
		order="head base"
	fi
	for side in $order; do
		"$work/dscflow-$side" -bench-json "$work/$side-$i.json" >/dev/null 2>&1
	done
done

# Fold each side's runs into one file: per op, the fastest run.
best() {
	jq -s '.[0] + {ops: ([.[].ops[]] | group_by(.op) | map(min_by(.wall_ns)))}' "$@"
}
best "$work"/base-*.json >"$work/base.json"
best "$work"/head-*.json >"$work/head.json"

# The comparison's old side: the blessed ops and checks, timed by the base
# run (an op the base does not run yet has no time to compare against).
blessed=$(ls BENCH_pr*.json | sort -V | tail -n 1)
jq --slurpfile base "$work/base.json" '
	($base[0].ops | map({key: .op, value: .wall_ns}) | from_entries) as $wall
	| .ops |= map(.wall_ns = ($wall[.op] // 0))' "$blessed" >"$work/old.json"

# 25% absorbs shared-runner noise; a real regression on these ops is well
# past 2x.  The sub-millisecond March and schedule-search rows get wider
# per-op headroom, where scheduler jitter alone can exceed 25% — a
# packed-kernel regression there is a 10-60x cliff.
"$work/benchdiff" -threshold 25 \
	-op-threshold march.coverage=60 \
	-op-threshold march.coverage_parallel=60 \
	-op-threshold sched.session_search=60 \
	-op-threshold sched.search_parallel=60 \
	"$work/old.json" "$work/head.json"
